"""Partition-local random walk kernel (paper Algorithm 2, batched).

Advances a batch of independent walkers in lockstep: at each step every
active walker queries its edge sampler (Alg. 2 line 9-11 — the sampler
manager query is the O(1) ``state_index`` arithmetic), takes the
sampled edge, and updates its state (``updateState``). Walkers that hit
a dead end (no neighbor / no metapath-compatible neighbor) stop early;
their walks are ``-1``-padded.

This kernel is the unit of distribution: the Spark engine runs it via
``mapInArrow`` on blocks of walkers with the graph broadcast, and the
table harnesses call it directly when they need sampler statistics
(acceptance ratios).
"""
from __future__ import annotations

import numpy as np

from repro.core.abstraction import RandomWalkModel, WalkerBatch
from repro.graph.csr import CSRGraph
from repro.samplers.base import EdgeSampler, StaticSampler


def simulate_walks(
    g: CSRGraph,
    model: RandomWalkModel,
    starts: np.ndarray,
    walk_length: int,
    sampler: EdgeSampler,
    rng: np.random.Generator,
) -> np.ndarray:
    """Run one walk of ``walk_length`` steps from each start node.

    Returns ``int64[k, walk_length + 1]`` node ids, ``-1``-padded after
    early termination. ``sampler`` must be prepared.
    """
    starts = np.asarray(starts, dtype=np.int64)
    k = starts.shape[0]
    walks = np.full((k, walk_length + 1), -1, dtype=np.int64)
    walks[:, 0] = starts

    cur = starts.copy()
    prev = np.full(k, -1, dtype=np.int64)
    prev_eidx = np.full(k, -1, dtype=np.int64)
    alive = np.ones(k, dtype=bool)
    start_type = g.node_type[starts]

    # First step of second-order models draws from the static
    # distribution (there is no previous edge yet) — the original
    # node2vec behaviour.
    static = StaticSampler(g, model, rng)
    static.prepare()

    for t in range(1, walk_length + 1):
        idx = np.where(alive)[0]
        if idx.shape[0] == 0:
            break
        req = model.required_type(g, t, start_type[idx])
        wk = WalkerBatch(
            cur=cur[idx], prev=prev[idx], prev_eidx=prev_eidx[idx], req_type=req
        )
        stuck = model.stuck(g, wk)
        if stuck.any():
            alive[idx[stuck]] = False
            idx = idx[~stuck]
            if idx.shape[0] == 0:
                break
            wk = wk.take(~stuck)

        if model.order == 2 and t == 1:
            eidx = static.sample_nodes(wk.cur)
        else:
            eidx = sampler.sample(wk)

        bad = eidx < 0
        if bad.any():
            alive[idx[bad]] = False
            idx = idx[~bad]
            eidx = eidx[~bad]
            if idx.shape[0] == 0:
                break

        nxt = g.indices[eidx].astype(np.int64)
        walks[idx, t] = nxt
        prev[idx] = cur[idx]
        prev_eidx[idx] = eidx
        cur[idx] = nxt
    return walks


def walk_lengths(walks: np.ndarray) -> np.ndarray:
    """Per-walk node count (padding excluded)."""
    pad = walks == -1
    first = np.argmax(pad, axis=1)
    return np.where(pad.any(axis=1), first, walks.shape[1]).astype(np.int64)


def walks_to_lists(walks: np.ndarray) -> list:
    """Strip ``-1`` padding: one Python list per walk, the list form
    that harnesses and tests use (the engine encodes the padded matrix
    into Arrow directly, ``engine.walks_batch``)."""
    lens = walk_lengths(walks)
    return [row[:ln].tolist() for row, ln in zip(walks, lens)]
