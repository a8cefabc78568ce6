"""Distributed random walk generation (paper Algorithm 2 over Spark).

UniNet parallelizes walk generation by assigning independent walkers to
threads (§IV-A); the distributed-dataflow translation assigns them to
Spark partitions. The walker population (start node × walk number) is a
``spark.range`` of walker ids, one contiguous id range per partition and
no shuffle. ``mapInArrow`` runs the vectorized kernel per partition
against a **broadcast** read-only graph + prepared sampler, and returns
each block of walks as an Arrow ``RecordBatch`` built straight from the
padded walk matrix. The M-H sampler's ``prepare()`` initializes its
``LAST_x`` store on the driver, and the store ships in the broadcast:
every task starts from the same initialized store, closer to UniNet's
threads sharing one ``LAST_x`` array, and evolves the chains of its own
copy (DESIGN.md §7).

A task cuts its ids into blocks of :data:`BLOCK` consecutive walkers,
counted from the partition's first id whatever the Arrow batches
delivered, and reseeds its sampler at each block from the block's first
id. So a corpus depends only on the graph, model, sampler, seed and
``num_partitions`` (DESIGN.md §2).

Samplers with expensive ``prepare()`` (alias tables) are prepared once
on the driver and shipped via the broadcast, mirroring UniNet's threads
sharing one table set. The tables travel as per-entry weights in one
LZ4 frame (flickr_lite's node2vec broadcast: 11.9 MB instead of
177 MB); each Python worker decompresses them and sums them once, in
place, on its first draw (``samplers/alias.py``). Each draw then
searches only its own table's window of the running sum
(``samplers/segment.window_choice``).

Each task first makes the Python worker's zip importers drop their
cached archive directories lazily instead of re-reading them, which
PySpark's per-task ``importlib.invalidate_caches()`` otherwise costs on
CPython < 3.13 (:func:`_lazy_zip_invalidation`, DESIGN.md §2).
"""
from __future__ import annotations

import sys
import zipimport
from typing import Iterable, Iterator, Optional

import numpy as np
import pyarrow as pa
from pyspark.sql import DataFrame, SparkSession

from repro.core.abstraction import RandomWalkModel
from repro.graph.csr import CSRGraph
from repro.samplers import make_sampler
from repro.samplers.base import EdgeSampler
from repro.walks.kernel import simulate_walks

WALKS_SCHEMA = "walk_id long, start long, walk array<long>"
_WALKS_ARROW = pa.schema(
    [("walk_id", pa.int64()), ("start", pa.int64()), ("walk", pa.list_(pa.int64()))]
)
#: Walkers per kernel call, and per reseed of a task's sampler.
BLOCK = 10_000


def _forget_zip_directory(self) -> None:
    """``zipimporter.invalidate_caches`` as CPython 3.13 has it: drop
    the archive's cached directory, read nothing."""
    zipimport._zip_directory_cache.pop(self.archive, None)


def _lazy_zip_invalidation() -> None:
    """Install :func:`_forget_zip_directory` as
    ``zipimporter.invalidate_caches``, once per process; a no-op on
    CPython 3.13 and later, whose method already does that.

    PySpark's worker calls ``importlib.invalidate_caches()`` at every
    task start, and before 3.13 each of the worker's zip importers
    (``pyspark.zip``, py4j's zip, the Spark jar and their packages)
    re-parses its archive's whole central directory there: 0.12–0.45 s
    per task. The one difference from 3.13: an importer that already
    exists keeps the directory it read, so it does not see an archive
    that changes while the worker lives, which Spark's own archives
    never do.
    """
    if (
        sys.version_info < (3, 13)
        and zipimport.zipimporter.invalidate_caches is not _forget_zip_directory
    ):
        zipimport.zipimporter.invalidate_caches = _forget_zip_directory


def walker_frame(
    spark: SparkSession,
    starts: np.ndarray,
    num_walks: int,
    num_partitions: int,
) -> DataFrame:
    """The walker population: one row per (start node, walk index), as
    ``num_partitions`` contiguous id ranges."""
    n = int(starts.shape[0]) * num_walks
    return spark.range(0, n, 1, num_partitions)


def walker_blocks(batches: Iterable[pa.RecordBatch]) -> Iterator[np.ndarray]:
    """The walker ids of a task's input batches, re-cut into runs of
    :data:`BLOCK` in arrival order; the last run may be shorter. An
    empty partition yields nothing."""
    buf = np.empty(0, dtype=np.int64)
    for rb in batches:
        buf = np.concatenate([buf, rb.column(0).to_numpy()])
        while buf.shape[0] >= BLOCK:
            yield buf[:BLOCK]
            buf = buf[BLOCK:]
    if buf.shape[0]:
        yield buf


def walks_batch(ids: np.ndarray, starts: np.ndarray, walks: np.ndarray) -> pa.RecordBatch:
    """One block of the corpus: the ``-1``-padded walk matrix becomes
    the ``walk`` list column through its offsets and unpadded values."""
    keep = walks >= 0
    offsets = np.zeros(walks.shape[0] + 1, dtype=np.int32)
    np.cumsum(keep.sum(axis=1), out=offsets[1:])
    walk = pa.ListArray.from_arrays(offsets, walks[keep])
    return pa.RecordBatch.from_arrays(
        [pa.array(ids), pa.array(starts), walk], schema=_WALKS_ARROW
    )


def generate_walks(
    spark: SparkSession,
    g: CSRGraph,
    model: RandomWalkModel,
    *,
    num_walks: int = 10,
    walk_length: int = 80,
    sampler: str = "mh",
    seed: int = 0,
    num_partitions: Optional[int] = None,
    prepared: Optional[EdgeSampler] = None,
) -> DataFrame:
    """Random walk corpus as a DataFrame ``(walk_id, start, walk)``.

    ``prepared`` lets callers pass an already-``prepare()``-ed sampler
    built on this ``g`` and ``model`` (so its init cost is timed
    separately, Table VI's ``T_i``); otherwise one is built and prepared
    on the driver here. The returned DataFrame is lazy — trigger with an
    action.
    ``num_partitions`` defaults to the session's ``defaultParallelism``;
    pass it to get the same corpus on machines with other core counts.

    Raises ``ValueError`` for ``num_walks < 1``, ``walk_length < 0``,
    ``num_partitions < 1`` or a ``prepared`` sampler built on another
    graph or model object, before any ``prepare()`` or broadcast. Each
    call's broadcast lives until the session stops: its pickle file
    stays in Spark's temp dir and its blocks stay in the JVM, so a
    session that builds many large corpora (alias tables) accumulates
    them.
    """
    if num_walks < 1:
        raise ValueError(f"num_walks must be >= 1, got {num_walks}")
    if walk_length < 0:
        raise ValueError(f"walk_length must be >= 0, got {walk_length}")
    if num_partitions is not None and num_partitions < 1:
        raise ValueError(f"num_partitions must be >= 1, got {num_partitions}")
    if prepared is not None and (prepared.g is not g or prepared.model is not model):
        raise ValueError("prepared sampler was built for another graph or model")
    sc = spark.sparkContext
    parts = sc.defaultParallelism if num_partitions is None else num_partitions
    starts = model.start_nodes(g)
    if starts.shape[0] == 0:
        raise ValueError("model has no eligible start nodes on this graph")

    if prepared is None:
        rng0 = np.random.default_rng(seed)
        prepared = make_sampler(sampler, g, model, rng0)
        prepared.prepare()
    bc = sc.broadcast((g, model, prepared, starts))

    def run(batches):
        _lazy_zip_invalidation()
        gb, mb, sb, st = bc.value
        # The worker caches bc.value across tasks and actions: each task
        # takes a private copy of the prepared LAST_x store, so a corpus
        # does not depend on which worker ran which task before.
        samp = sb.task_copy()
        for ids in walker_blocks(batches):
            samp.reseed(np.random.default_rng((seed, int(ids[0]), 0xC0FFEE)))
            block_starts = st[ids % st.shape[0]]
            walks = simulate_walks(
                gb, mb, block_starts, walk_length, samp, samp.rng
            )
            yield walks_batch(ids, block_starts, walks)

    return walker_frame(spark, starts, num_walks, parts).mapInArrow(
        run, schema=WALKS_SCHEMA
    )


def count_walk_tokens(walks_df: DataFrame) -> int:
    """Action: total node tokens across the corpus (drives execution);
    0 for an empty corpus."""
    from pyspark.sql import functions as F

    return int(
        walks_df.select(F.sum(F.size("walk")).alias("t")).collect()[0]["t"] or 0
    )
