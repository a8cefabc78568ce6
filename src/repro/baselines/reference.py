"""Naive reference implementation — the "Open-sourced Version" analog.

The paper's Table VI compares UniNet against the models' original
open-source repositories, whose defining inefficiencies are:

* **node2vec** — precomputes a sampling table for *every* second-order
  state up front (the original repo's ``preprocess_transition_probs``):
  enormous ``T_i`` and memory, O(1) walking afterwards;
* **the other four** — recompute and normalize the full transition
  distribution per step, walker by walker (direct sampling in a
  per-walker loop): modest init, slow ``T_w``.

We reproduce those mechanisms (per-walker loops, full normalization /
full precomputation) rather than the original constants (DESIGN.md §3).
A wall-clock cap makes the ``> 4h``-style cells affordable: when
exceeded the run returns ``None`` timings, rendered as ``>cap``.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core.abstraction import RandomWalkModel, WalkerBatch
from repro.graph.csr import CSRGraph
from repro.models.node2vec import Node2Vec


@dataclass
class ReferenceResult:
    init_s: Optional[float]
    walk_s: Optional[float]
    walks: Optional[np.ndarray]
    timed_out: bool = False


def _state_cdf(g: CSRGraph, model: RandomWalkModel, prev: int, cur: int,
               prev_eidx: int) -> np.ndarray:
    """Normalized CDF of one second-order state's distribution."""
    deg = int(g.indptr[cur + 1] - g.indptr[cur])
    wk = WalkerBatch(
        cur=np.full(deg, cur, dtype=np.int64),
        prev=np.full(deg, prev, dtype=np.int64),
        prev_eidx=np.full(deg, prev_eidx, dtype=np.int64),
    )
    w = model.dyn_weight(g, wk, g.indptr[cur] + np.arange(deg, dtype=np.int64))
    return np.cumsum(w)


def reference_walks(
    g: CSRGraph,
    model: RandomWalkModel,
    starts: np.ndarray,
    *,
    num_walks: int = 10,
    walk_length: int = 80,
    seed: int = 0,
    time_limit_s: Optional[float] = None,
) -> ReferenceResult:
    """Run the naive reference end-to-end (init + walk phases)."""
    rng = np.random.default_rng(seed)
    limit = float("inf") if time_limit_s is None else float(time_limit_s)
    t0 = time.perf_counter()

    precomputed: Dict[int, np.ndarray] = {}
    if isinstance(model, Node2Vec):
        # Original node2vec: one table per directed edge state, all
        # built before any walking.
        for e in range(g.m):
            s, v = int(g.src[e]), int(g.indices[e])
            precomputed[e] = _state_cdf(g, model, s, v, e)
            if (e & 0x3FF) == 0 and time.perf_counter() - t0 > limit:
                return ReferenceResult(None, None, None, timed_out=True)
    init_s = time.perf_counter() - t0

    t1 = time.perf_counter()
    starts = np.asarray(starts, dtype=np.int64)
    all_starts = np.tile(starts, num_walks)
    walks = np.full((all_starts.shape[0], walk_length + 1), -1, dtype=np.int64)
    for wi, s0 in enumerate(all_starts):
        cur, prev, prev_eidx = int(s0), -1, -1
        walks[wi, 0] = cur
        for t in range(1, walk_length + 1):
            lo, hi = int(g.indptr[cur]), int(g.indptr[cur + 1])
            deg = hi - lo
            if deg == 0:
                break
            if precomputed and prev_eidx >= 0:
                cdf = precomputed[prev_eidx]
            elif precomputed or model.order == 2 and prev < 0:
                # First step (or tabled models' first step): static w.
                cdf = np.cumsum(g.weights[lo:hi])
            else:
                # Per-step full normalization (direct sampling).
                req = model.required_type(g, t, g.node_type[np.array([int(s0)])])
                wk = WalkerBatch(
                    cur=np.full(deg, cur, dtype=np.int64),
                    prev=np.full(deg, prev, dtype=np.int64),
                    prev_eidx=np.full(deg, prev_eidx, dtype=np.int64),
                    req_type=None
                    if req is None
                    else np.full(deg, req[0], dtype=np.int16),
                )
                cdf = np.cumsum(
                    model.dyn_weight(g, wk, lo + np.arange(deg, dtype=np.int64))
                )
            tot = cdf[-1]
            if tot <= 0:
                break
            slot = int(np.searchsorted(cdf, rng.random() * tot, side="right"))
            slot = min(slot, deg - 1)
            nxt = int(g.indices[lo + slot])
            walks[wi, t] = nxt
            prev, prev_eidx, cur = cur, lo + slot, nxt
        if (wi & 0xFF) == 0 and time.perf_counter() - t1 > limit:
            return ReferenceResult(init_s, None, None, timed_out=True)
    return ReferenceResult(init_s, time.perf_counter() - t1, walks)
