"""Shared test helpers: small deterministic graphs + sampling probes."""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.core.abstraction import WalkerBatch
from repro.graph.csr import CSRGraph, from_edges
from repro.models import make_model
from repro.synth_data import chung_lu_edges, node_types


@lru_cache(maxsize=None)
def small_graph(
    n: int = 200,
    avg_degree: float = 12,
    beta: float = 0.5,
    n_types: int = 3,
    weighted: bool = True,
    seed: int = 3,
) -> CSRGraph:
    src, dst, w = chung_lu_edges(
        n=n, avg_degree=avg_degree, beta=beta, seed=seed, weighted=weighted
    )
    nt = node_types(n=n, n_types=n_types, seed=seed)
    return from_edges(src, dst, w, n=n, node_type=nt)


def biased_model(name: str):
    """``make_model(name)``, with node2vec at the strongly biased
    (p, q) = (0.25, 4); the other models take neither parameter."""
    return make_model(name, **(dict(p=0.25, q=4.0) if name == "node2vec" else {}))


def state_batch(
    g: CSRGraph, cur: int, prev: int = -1, req_type: int | None = None, k: int = 1
) -> WalkerBatch:
    """A batch of ``k`` walkers pinned to one state."""
    prev_eidx = -1
    if prev >= 0:
        prev_eidx = int(g.edge_index(np.array([prev]), np.array([cur]))[0])
    return WalkerBatch(
        cur=np.full(k, cur, dtype=np.int64),
        prev=np.full(k, prev, dtype=np.int64),
        prev_eidx=np.full(k, prev_eidx, dtype=np.int64),
        req_type=None if req_type is None else np.full(k, req_type, dtype=np.int16),
    )


def empirical_distribution(g, sampler, wk_one: WalkerBatch, n_draws: int) -> np.ndarray:
    """Empirical neighbor-slot distribution from repeated single-state
    draws (sequential — correct for chain samplers)."""
    v = int(wk_one.cur[0])
    deg = int(g.degree(np.array([v]))[0])
    counts = np.zeros(deg)
    for _ in range(n_draws):
        e = sampler.sample(wk_one)
        counts[int(e[0]) - g.indptr[v]] += 1
    return counts / counts.sum()


def empirical_distribution_batched(
    g, sampler, cur: int, prev: int, req_type, n_draws: int, chunk: int = 4000
) -> np.ndarray:
    """Empirical distribution via batched draws — valid only for
    memoryless samplers (alias/direct/rejection/knightking/static)."""
    deg = int(g.degree(np.array([cur]))[0])
    counts = np.zeros(deg)
    remaining = n_draws
    while remaining > 0:
        k = min(chunk, remaining)
        wk = state_batch(g, cur, prev, req_type, k=k)
        e = sampler.sample(wk)
        e = e[e >= 0]
        np.add.at(counts, e - g.indptr[cur], 1)
        remaining -= k
    return counts / counts.sum()


def good_state(g: CSRGraph, min_degree: int = 8):
    """A (cur, prev) pair where cur has decent degree — deterministic."""
    v = int(np.argmax(g.degrees))
    assert g.degrees[v] >= min_degree
    prev = int(g.neighbors(v)[0])
    return v, prev


def brute_edge_index(g: CSRGraph, u, v) -> np.ndarray:
    """Loop reference for :meth:`CSRGraph.edge_index`: the slot of ``v``
    in ``u``'s adjacency row (per-row ``np.isin``), ``-1`` if absent or
    if either id lies outside ``[0, n)``."""
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    out = np.full(u.shape, -1, dtype=np.int64)
    for i, (a, b) in enumerate(zip(u, v)):
        if 0 <= a < g.n and 0 <= b < g.n:
            hit = np.flatnonzero(np.isin(g.neighbors(a), b))
            if hit.size:
                out[i] = g.indptr[a] + hit[0]
    return out
