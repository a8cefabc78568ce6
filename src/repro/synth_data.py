"""Synthetic graph generators: the reproduction's dataset substitutes.

The paper evaluates on 11 real networks (BlogCatalog … Web-UK). We
substitute seeded Chung–Lu power-law graphs whose (n, avg degree,
skew, #node types) mirror each dataset's shape at reduced scale
(DESIGN.md §3). Chung–Lu draws both endpoints of every edge
independently with probability proportional to a per-node weight
w_i ∝ (i+1)^{-beta}, which yields the heavy-tailed degree
distributions that drive edge-sampler behaviour (skewed transition
distributions, high-degree hubs). Every generator is deterministic in
``seed``.
"""
import numpy as np


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def chung_lu_edges(
    *,
    n: int,
    avg_degree: float,
    beta: float = 0.6,
    seed: int = 0,
    weighted: bool = False,
):
    """Numpy edge arrays ``(src, dst, weight)`` of a Chung–Lu graph.

    ``beta`` is the power-law exponent of the expected-degree sequence
    (0 = Erdős–Rényi-like, larger = more skew). Self loops are filtered
    later by the CSR builder; the target directed edge count is
    ``n * avg_degree`` before dedup/symmetrization.
    """
    g = _rng(seed)
    m = max(1, int(n * avg_degree / 2))  # undirected edges pre-symmetrize
    p = (np.arange(1, n + 1, dtype=np.float64)) ** (-beta)
    p /= p.sum()
    src = g.choice(n, size=m, p=p)
    dst = g.choice(n, size=m, p=p)
    if weighted:
        w = (0.5 + g.random(m)).round(4)
    else:
        w = np.ones(m, dtype=np.float64)
    return src.astype(np.int64), dst.astype(np.int64), w


def node_types(*, n: int, n_types: int, seed: int = 0) -> np.ndarray:
    """Node-type labels for heterogeneous networks (metapath2vec /
    edge2vec), skewed like real author/paper/venue partitions."""
    if n_types <= 1:
        return np.zeros(n, dtype=np.int16)
    g = _rng(seed + 77)
    p = (np.arange(1, n_types + 1, dtype=np.float64)) ** (-0.5)
    p /= p.sum()
    return g.choice(n_types, size=n, p=p).astype(np.int16)


def planted_partition_edges(
    *,
    n: int,
    n_communities: int,
    avg_degree: float = 16.0,
    p_in: float = 0.9,
    seed: int = 0,
):
    """Numpy ``(src, dst, weight, labels)`` for a planted-partition graph.

    Used by the accuracy evaluation (Fig-5-style node classification):
    each node gets a community label; an edge stays inside the
    community with probability ``p_in``. Embeddings that capture
    structure should recover the labels.
    """
    g = _rng(seed)
    labels = g.integers(0, n_communities, n).astype(np.int16)
    m = max(1, int(n * avg_degree / 2))
    src = g.integers(0, n, m)
    intra = g.random(m) < p_in
    # Intra-community partner: random node with the same label.
    order = np.argsort(labels, kind="stable")
    sorted_labels = labels[order]
    starts = np.searchsorted(sorted_labels, np.arange(n_communities))
    ends = np.searchsorted(sorted_labels, np.arange(n_communities), side="right")
    lab = labels[src]
    span = (ends - starts)[lab]
    dst_intra = order[starts[lab] + (g.random(m) * span).astype(np.int64)]
    dst_inter = g.integers(0, n, m)
    dst = np.where(intra, dst_intra, dst_inter)
    w = np.ones(m, dtype=np.float64)
    return src.astype(np.int64), dst.astype(np.int64), w, labels
