"""Alias-class edge sampler: fully materialized per-state tables.

The paper's alias sampler (Walker '77) precomputes one table per
transition probability distribution: O(1) per sample but
O(d · #states) memory — the memory-explosion baseline. We reproduce its
*cost profile* exactly: ``prepare()`` materializes, for every state,
the full dynamic-weight distribution over the current node's neighbors
(Σ_states deg bytes, charged at alias per-entry cost against the
simulated budget), and sampling is a constant-depth lookup.

Implementation note (DESIGN.md §3): the per-state structure is a
cumulative table queried by one vectorized binary search (O(log d))
rather than a literal Vose alias pair — memory is byte-equivalent and
query cost is indistinguishable at benchmark scale; the defining
characteristics (huge ``T_i``, O(d·#state) memory,
parameter-insensitive sampling) are preserved. This module owns the
table format, :class:`Tables`. :func:`build_tables` streams the
construction on every CPU the process may run on, as UniNet's threads
do (paper §IV-A): a thread pool evaluates the dynamic weights of chunks
of (state, candidate) entries straight into disjoint slices of the
preallocated table, at most ``_CHUNK_ENTRIES`` entries in flight across
all threads. The tables leave the build, and travel in the engine's
broadcast, as those per-entry weights: a float64 running sum's
mantissas do not compress, while the weights of a model like node2vec
take a handful of distinct values and compress well. The first draw in
each process (:func:`sample_tables`) turns them, in place and once,
into the running sum with one sequential ``cumsum``; so alias ``T_i``
excludes the prefix sum, which Table VI counts in ``T_w``, once per
worker. No full-length temporary exists besides the table itself, and
since each entry's weight does not depend on its chunk and the sum runs
in one fixed order, the summed table is bit-identical for any thread
count and schedule. States are enumerated by edge source, so node2vec's
membership queries arrive with non-decreasing ``prev`` and take
``CSRGraph.has_edge``'s O(1) marker path. The memory-aware sampler
builds and queries its tables with the same two functions.
"""
from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from repro.core.abstraction import RandomWalkModel, WalkerBatch
from repro.graph.csr import CSRGraph
from repro.models.metapath2vec import MetaPath2Vec
from repro.samplers.base import (
    BYTES_TABLE_ENTRY,
    EdgeSampler,
    MemoryBudgetExceeded,
    REAL_ENTRY_CAP,
)
from repro.samplers.segment import window_choice

#: (state, candidate) entries whose dynamic weights the threads of
#: :func:`build_tables` evaluate at once, split evenly between them: each
#: kind of walker, candidate and weight temporary stays within 2 MB in
#: total, whatever the thread count.
_CHUNK_ENTRIES = 1 << 18


def _cpu_count() -> int:
    """CPUs this process may run on: the thread count of :func:`build_tables`."""
    return len(os.sched_getaffinity(0))


class Tables:
    """Per-state tables of :func:`build_tables`, one float64 buffer.

    The table of state ``i`` covers entries ``offs[i]..offs[i + 1] - 1``.
    ``buf[0]`` is 0; until the first draw, ``buf[1 + j]`` is entry
    ``j``'s weight. :meth:`cum` turns ``buf`` in place into the running
    sum over all tables, once per process: shallow sampler copies share
    this object, and pickling carries ``summed``, so a table summed
    before it ships is not summed again.
    """

    def __init__(self, buf: np.ndarray, offs: np.ndarray):
        self.buf = buf
        self.offs = offs
        self.summed = False
        self._lock = threading.Lock()

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        del state["_lock"]  # locks do not pickle
        return state

    def __setstate__(self, state: dict) -> None:
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
    fills chunks of ``_CHUNK_ENTRIES // threads`` entries (a chunk may
    cut a state), each writing its weights into its own slice of
    ``buf[1:]``; the first exception of a chunk propagates. Once summed
    by :meth:`Tables.cum`, ``buf`` is bit-identical to
    ``concatenate([[0], cumsum(w)])`` over the whole weight vector.
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
    threads = _cpu_count()
    chunk = max(1, _CHUNK_ENTRIES // threads)

    def fill(a: int) -> None:
        b = min(a + chunk, total)
        # States s0..s1-1 own the entries a..b-1.
        s0 = int(np.searchsorted(offs, a, side="right")) - 1
        s1 = int(np.searchsorted(offs, b, side="left"))
        first = np.maximum(offs[s0:s1], a)
        last = np.minimum(offs[s0 + 1 : s1 + 1], b)
        sid = np.repeat(np.arange(s0, s1, dtype=np.int64), last - first)
        wk = states.take(sid)
        cand_eidx = g.indptr[wk.cur] + (np.arange(a, b, dtype=np.int64) - offs[sid])
        buf[a + 1 : b + 1] = model.dyn_weight(g, wk, cand_eidx)

    # numpy releases the GIL inside each chunk's array work. A lazy
    # graph or model cache (``CSRGraph.edge_type``, ``Edge2Vec.M``, ...)
    # first needed here may be filled by several threads at once; each
    # computes the same value from immutable inputs, so any one may win.
    # Reading every result re-raises a chunk's exception; map's iterator
    # then cancels the chunks not yet started.
    with ThreadPoolExecutor(threads, thread_name_prefix="alias-build") as pool:
        for _ in pool.map(fill, range(0, total, chunk)):
            pass
    return Tables(buf, offs)


def sample_tables(
    tables: Tables,
    table: np.ndarray,
    first_slot: np.ndarray,
    u: np.ndarray,
) -> np.ndarray:
    """Inverse-CDF draw from tables ``table`` of :func:`build_tables`
    with uniforms ``u``: one :func:`~repro.samplers.segment.window_choice`
    over the global running sum (the first draw in a process computes
    it). Returns the drawn candidate's global CSR slot (``first_slot``
    is each walker's ``indptr[cur]``), ``-1`` where the table's total
    weight is ~0 (no valid candidate)."""
    offs = tables.offs
    off = window_choice(tables.cum(), offs[table], offs[table + 1], u)
    return np.where(off >= 0, first_slot + off, -1)


def _enumerate_states(g: CSRGraph, model):
    """One walker per state, in state-index order, and the number of
    candidates of each state (the degree of its current node)."""
    if model.order == 2:
        # One state per directed edge (s -> v), in edge-source order;
        # distribution over N(v).
        wk = WalkerBatch(
            cur=g.indices.astype(np.int64),
            prev=g.src,
            prev_eidx=np.arange(g.m, dtype=np.int64),
        )
    elif isinstance(model, MetaPath2Vec):
        # One state per (node, required type).
        T = g.n_types
        states = np.arange(g.n * T, dtype=np.int64)
        none = np.full_like(states, -1)
        wk = WalkerBatch(
            cur=states // T, prev=none, prev_eidx=none,
            req_type=(states % T).astype(np.int16),
        )
    else:
        # One state per node (deepwalk).
        cur = np.arange(g.n, dtype=np.int64)
        none = np.full_like(cur, -1)
        wk = WalkerBatch(cur=cur, prev=none, prev_eidx=none)
    return wk, g.degree(wk.cur)


class TableSampler(EdgeSampler):
    """"Alias" in the reproduced tables."""

    name = "alias"

    def prepare(self) -> None:
        g, model = self.g, self.model
        states, lens = _enumerate_states(g, model)
        # Simulated-budget charge first (this is what reproduces the
        # paper's OOM cells), then the real-allocation guardrail.
        self.budget.charge("alias_tables", BYTES_TABLE_ENTRY * int(lens.sum()))
        self._tables = build_tables(g, model, states, lens, "alias")
        self._prepared = True

    def sample(self, wk: WalkerBatch) -> np.ndarray:
        if not self._prepared:
            self.prepare()
        g = self.g
        eidx = sample_tables(
            self._tables, self.model.state_index(g, wk),
            g.indptr[wk.cur], self.rng.random(len(wk)),
        )
        self.stats["proposals"] += len(wk)
        self.stats["accepts"] += len(wk)
        return eidx
