"""Alias-class edge sampler: fully materialized per-state tables.

The paper's alias sampler (Walker '77) precomputes one table per
transition probability distribution: O(1) per sample but
O(d · #states) memory — the memory-explosion baseline. We reproduce its
*cost profile* exactly: ``prepare()`` materializes, for every state,
the full dynamic-weight distribution over the current node's neighbors
(Σ_states deg bytes, charged at alias per-entry cost against the
simulated budget), and sampling is a constant-depth lookup.

Implementation note (DESIGN.md §3): the per-state structure is a
window of one global running sum, queried by a vectorized bisection
confined to each draw's window (O(log d) per draw, ⌈log₂ max degree⌉
gathers per batch) rather than a literal Vose alias pair — memory is
byte-equivalent; on flickr_lite 80 draws of 10 k walkers take 0.16 s
(one core of a 4-vCPU x86_64 box) against 1.6 s for one
``searchsorted`` over the whole sum. The defining
characteristics (huge ``T_i``, O(d·#state) memory,
parameter-insensitive sampling) are preserved. This module owns the
table format, :class:`Tables`. :func:`build_tables` streams the
construction on every CPU the process may run on, as UniNet's threads
do (paper §IV-A): the shared pool of :mod:`repro.samplers.pool`
evaluates the dynamic weights of chunks of (state, candidate) entries
straight into disjoint slices of the preallocated table, at most
``pool.MAX_IN_FLIGHT`` entries in flight across all threads. The tables
leave the build, and travel in the engine's broadcast, as those
per-entry weights in one LZ4 frame (:class:`Tables`): a float64 running
sum's mantissas do not compress, while the weights of a model like
node2vec take a handful of distinct values and compress about 20×. The
first draw in each process (:func:`sample_tables`) turns them, in place
and once, into the running sum with one sequential ``cumsum``; so alias
``T_i`` excludes the prefix sum, which Table VI counts in ``T_w``, once
per worker. No full-length temporary exists besides the table itself, and
since each entry's weight does not depend on its chunk and the sum runs
in one fixed order, the summed table is bit-identical for any thread
count and schedule. The states are the model's own
(``RandomWalkModel.states``); second-order models enumerate them by edge
source, so node2vec's membership queries arrive with non-decreasing
``prev`` and take ``CSRGraph.has_edge``'s O(1) marker path. The
memory-aware sampler builds and queries its tables with the same two
functions.
"""
from __future__ import annotations

import threading

import numpy as np
import pyarrow as pa

from repro.core.abstraction import RandomWalkModel, WalkerBatch
from repro.graph.csr import CSRGraph
from repro.samplers import pool
from repro.samplers.base import (
    BYTES_TABLE_ENTRY,
    EdgeSampler,
    MemoryBudgetExceeded,
    REAL_ENTRY_CAP,
)
from repro.samplers.segment import window_choice


class Tables:
    """Per-state tables of :func:`build_tables`, one float64 buffer.

    The table of state ``i`` covers entries ``offs[i]..offs[i + 1] - 1``.
    ``buf[0]`` is 0; until the first draw, ``buf[1 + j]`` is entry
    ``j``'s weight. :meth:`cum` turns ``buf`` in place into the running
    sum over all tables, once per process: shallow sampler copies share
    this object, and pickling carries ``summed``, so a table summed
    before it ships is not summed again.

    Unsummed weights pickle as one LZ4 frame: a model like node2vec
    gives them a handful of distinct values, and flickr_lite's 173.6 MB
    of node2vec weights compress to 8.4 MB in 0.08 s. Unpickling
    decompresses them into a writable buffer, so :meth:`cum` still sums
    in place. A summed table pickles raw: its running sum compresses
    only about 2×.
    """

    def __init__(self, buf: np.ndarray, offs: np.ndarray):
        self.buf = buf
        self.offs = offs
        self.summed = False
        self._lock = threading.Lock()

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["_lock"]  # locks do not pickle
        if not self.summed:
            state["buf"] = pa.compress(self.buf, codec="lz4", asbytes=True)
        return state

    def __setstate__(self, state: dict) -> None:
        if not state["summed"]:
            # ``buf`` holds offs[-1] + 1 float64s; the system pool
            # allocates them with malloc, as numpy would, not in
            # pyarrow's jemalloc arenas.
            raw = pa.decompress(
                state["buf"], decompressed_size=8 * (int(state["offs"][-1]) + 1),
                codec="lz4", memory_pool=pa.system_memory_pool(),
            )
            state["buf"] = np.frombuffer(raw, dtype=np.float64)
        self.__dict__.update(state)
        self._lock = threading.Lock()

    def cum(self) -> np.ndarray:
        """The running sum over all tables, starting at 0; the first call
        computes it in place with one sequential ``cumsum``."""
        if not self.summed:
            with self._lock:
                if not self.summed:
                    np.cumsum(self.buf, out=self.buf)
                    self.summed = True
        return self.buf


def build_tables(
    g: CSRGraph,
    model: RandomWalkModel,
    states: WalkerBatch,
    lens: np.ndarray,
    what: str,
) -> Tables:
    """Dynamic-weight tables of the walkers ``states``, one per state
    over the ``lens[i]`` neighbours of ``states.cur[i]``, as per-entry
    weights (see :class:`Tables`).

    Raises :class:`MemoryBudgetExceeded` before any allocation when the
    tables need more than ``REAL_ENTRY_CAP`` entries. One thread per CPU
    fills chunks of ``pool.MAX_IN_FLIGHT // CPUs`` entries (a chunk may
    cut a state) through :func:`repro.samplers.pool.run_chunks`, each
    writing its weights into its own slice of ``buf[1:]``; the first
    exception of a chunk propagates. Once summed by :meth:`Tables.cum`,
    ``buf`` is bit-identical to ``concatenate([[0], cumsum(w)])`` over
    the whole weight vector.
    """
    offs = np.zeros(len(states) + 1, dtype=np.int64)
    np.cumsum(lens, out=offs[1:])
    total = int(offs[-1])
    if total > REAL_ENTRY_CAP:
        raise MemoryBudgetExceeded(
            f"{what} tables need {total:.2e} real entries > cap {REAL_ENTRY_CAP:.0e}"
        )
    buf = np.empty(total + 1, dtype=np.float64)
    buf[0] = 0.0
    chunk = max(1, pool.MAX_IN_FLIGHT // pool.cpu_count())

    def fill(a: int, b: int) -> None:
        # States s0..s1-1 own the entries a..b-1.
        s0 = int(np.searchsorted(offs, a, side="right")) - 1
        s1 = int(np.searchsorted(offs, b, side="left"))
        first = np.maximum(offs[s0:s1], a)
        last = np.minimum(offs[s0 + 1 : s1 + 1], b)
        sid = np.repeat(np.arange(s0, s1, dtype=np.int64), last - first)
        wk = states.take(sid)
        cand_eidx = g.indptr[wk.cur] + (np.arange(a, b, dtype=np.int64) - offs[sid])
        buf[a + 1 : b + 1] = model.dyn_weight(g, wk, cand_eidx)

    pool.run_chunks(fill, total, chunk, name="alias-build")
    return Tables(buf, offs)


def sample_tables(
    tables: Tables,
    table: np.ndarray,
    first_slot: np.ndarray,
    u: np.ndarray,
) -> np.ndarray:
    """Inverse-CDF draw from tables ``table`` of :func:`build_tables`
    with uniforms ``u``: one :func:`~repro.samplers.segment.window_choice`
    over each table's window of the global running sum (the first draw
    in a process computes it). Returns the drawn candidate's global CSR
    slot (``first_slot`` is each walker's ``indptr[cur]``), ``-1`` where
    the table's total weight is ~0 (no valid candidate)."""
    offs = tables.offs
    off = window_choice(tables.cum(), offs[table], offs[table + 1], u)
    return np.where(off >= 0, first_slot + off, -1)


class TableSampler(EdgeSampler):
    """"Alias" in the reproduced tables."""

    name = "alias"

    def prepare(self) -> None:
        g, model = self.g, self.model
        states = model.states(g)
        lens = g.degree(states.cur)
        # Simulated-budget charge first (this is what reproduces the
        # paper's OOM cells), then the real-allocation guardrail.
        self.budget.charge("alias_tables", BYTES_TABLE_ENTRY * int(lens.sum()))
        self._tables = build_tables(g, model, states, lens, "alias")

    def sample(self, wk: WalkerBatch) -> np.ndarray:
        g = self.g
        eidx = sample_tables(
            self._tables, self.model.state_index(g, wk),
            g.indptr[wk.cur], self.rng.random(len(wk)),
        )
        self.stats["proposals"] += len(wk)
        self.stats["accepts"] += len(wk)
        return eidx
