"""Immutable CSR graph structure (paper §IV-C "Network Storage").

The paper stores the network as compressed sparse row (CSR): a node
offset array plus an edge (neighbor) array, with optional per-edge
weights and per-node types. We freeze the cleaned edge list produced by
Spark (see :mod:`repro.graph.builder`) into numpy arrays so it can be
broadcast to executors and sampled with vectorized numerics.

A sorted composite key ``src * n + dst`` over all directed edge slots
answers ``has_edge`` / ``edge_index`` — the binary search the paper
charges to node2vec's dynamic weight calculation (§III-A complexity
analysis). The search is global over all ``m`` slots, not per
neighborhood, and batched: each block of ``b <= 2**21`` queries is
argsorted (``O(b log b)``), searched with one ``searchsorted`` over the
key (``O(b log m)`` comparisons), and the hits are scattered back.
Sorted queries touch the key in increasing order, so successive
searches share the cache lines of their upper probes; unsorted ones
miss the cache on nearly every probe once the key outgrows it.

``has_edge`` has one more path, an O(1) lookup per query like the hash
set of the original node2vec precompute. When the sources ``u`` are
non-decreasing and their rows ``u[0]..u[-1]`` span at most
``_MARK_CELLS`` (row, node) cells, it marks those rows' out-neighbours
in one bool array and gathers the queries from it. Alias-table builds
query in edge-source order and take this path; walker batches are
unsorted and take the sorted search.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

#: Queries per sorted block of :meth:`CSRGraph.edge_index`. A walker
#: batch's lookups (at most 80 k: 10 k walkers x 8 high-weight samples)
#: are one block. Alias tables enumerate every state's neighbours in one
#: call (21.5 M queries on flickr_lite). Argsort's cost per key grows with
#: the block, so sorting that call whole is slower than the unsorted
#: search it replaces, and its order, sorted-key and position arrays
#: grow with the call; 2 M-key blocks bound each of them at 16 MB.
_SEARCH_BLOCK = 1 << 21
#: Largest (row, node) marker array of :meth:`CSRGraph.has_edge`'s
#: sorted-source path: 8 MB of bools.
_MARK_CELLS = 1 << 23


@dataclass(frozen=True)
class CSRGraph:
    """A frozen, symmetrized, weighted (optionally typed) graph.

    Attributes
    ----------
    n : number of nodes (ids are ``0..n-1``).
    indptr : ``int64[n+1]`` — CSR offsets into ``indices``.
    indices : ``int32[m]`` — neighbor ids, **sorted** within each node's
        slice (required by the composite-key binary search).
    weights : ``float64[m]`` — static edge weight per directed slot.
    node_type : ``int16[n]`` — heterogeneous node type (all zeros for
        homogeneous networks).
    node_attr : ``int16[n]`` — fairwalk's protected attribute; equals
        ``node_type`` on heterogeneous networks unless set separately.
    """

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray
    node_type: np.ndarray
    node_attr: np.ndarray
    # Derived arrays, filled in __post_init__.
    src: np.ndarray = field(default=None, repr=False)
    comp_key: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        deg = np.diff(self.indptr)
        src = np.repeat(np.arange(self.n, dtype=np.int64), deg)
        object.__setattr__(self, "src", src)
        object.__setattr__(
            self, "comp_key", src * np.int64(self.n) + self.indices.astype(np.int64)
        )

    def __reduce__(self):
        # Pickle (the engine's broadcast) only the primary arrays:
        # __post_init__ rebuilds src and comp_key on unpickle, and the
        # lazy caches refill on first use. That halves twitter_sim's
        # broadcast for one np.repeat and one multiply-add per worker.
        return (
            type(self),
            (self.n, self.indptr, self.indices, self.weights, self.node_type,
             self.node_attr),
        )

    # ------------------------------------------------------------------
    @property
    def m(self) -> int:
        """Number of directed edge slots."""
        return int(self.indices.shape[0])

    @property
    def n_types(self) -> int:
        """Number of distinct node types (1 for homogeneous networks)."""
        return int(self.node_type.max()) + 1 if self.n else 0

    @property
    def n_attrs(self) -> int:
        """Number of distinct fairwalk attribute groups."""
        return int(self.node_attr.max()) + 1 if self.n else 0

    def degree(self, v: np.ndarray) -> np.ndarray:
        """Vectorized out-degree of nodes ``v``."""
        return (self.indptr[np.asarray(v) + 1] - self.indptr[np.asarray(v)]).astype(
            np.int64
        )

    @property
    def degrees(self) -> np.ndarray:
        return np.diff(self.indptr)

    # ------------------------------------------------------------------
    def edge_index(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Vectorized directed-edge slot of ``(u, v)``; ``-1`` if absent
        or if ``u`` or ``v`` lies outside ``[0, n)``.

        A sorted batch search, block by block: each block's query keys
        are sorted, searched in one ``searchsorted`` over the composite
        key and the hits scattered back in query order (see the module
        docstring for the cost). The key buffer doubles as the output.
        """
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        n = np.int64(self.n)
        out = np.asarray(u * n + v)
        # -1 sorts first and matches no edge; an out-of-range id would
        # otherwise alias a real key (1·n + (-1) == 0·n + (n-1)).
        np.copyto(out, -1, where=(u < 0) | (u >= n) | (v < 0) | (v >= n))
        key = out.reshape(-1)
        if self.m == 0:
            key.fill(-1)
            return out
        for lo in range(0, key.shape[0], _SEARCH_BLOCK):
            blk = key[lo : lo + _SEARCH_BLOCK]
            order = np.argsort(blk)
            sblk = blk[order]
            pos = np.searchsorted(self.comp_key, sblk)
            # Past-the-end positions read the largest key, which is < sblk.
            np.minimum(pos, self.m - 1, out=pos)
            np.take(self.comp_key, pos, out=blk)
            pos[blk != sblk] = -1
            blk[order] = pos
        return out

    def has_edge(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """Vectorized edge-existence test (node2vec's ``d(u, s) == 1``);
        ``False`` if ``u`` or ``v`` lies outside ``[0, n)``.

        Non-decreasing 1-D ``u`` whose rows ``u[0]..u[-1]`` span at most
        ``_MARK_CELLS`` cells are answered from a marker array (see the
        module docstring); every other call is ``edge_index(u, v) >= 0``.
        Both are exact for any graph, symmetric or not.
        """
        u = np.asarray(u, dtype=np.int64)
        v = np.asarray(v, dtype=np.int64)
        if (
            u.ndim == 1
            and u.shape == v.shape
            and u.size
            and (int(u[-1]) - int(u[0]) + 1) * self.n <= _MARK_CELLS
            and (u[1:] >= u[:-1]).all()
        ):
            return self._has_edge_marked(u, v)
        return self.edge_index(u, v) >= 0

    def _has_edge_marked(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """``has_edge`` for non-decreasing ``u``: mark the out-neighbours
        of the in-range rows ``lo..hi`` at cells ``(row - lo) * n + nbr``,
        then gather each query's cell."""
        n = self.n
        out = np.zeros(u.shape[0], dtype=bool)
        # u is sorted, so the queries with 0 <= u < n are one slice.
        i0, i1 = (int(i) for i in np.searchsorted(u, [0, n]))
        if i0 == i1:
            return out
        lo, hi = int(u[i0]), int(u[i1 - 1])
        a, b = self.indptr[lo], self.indptr[hi + 1]
        size = (hi - lo + 1) * n
        # The extra last cell is never marked: out-of-range v reads it.
        mark = np.zeros(size + 1, dtype=bool)
        mark[(self.src[a:b] - lo) * n + self.indices[a:b]] = True
        vs = v[i0:i1]
        cell = (u[i0:i1] - lo) * n + vs
        np.copyto(cell, size, where=vs.view(np.uint64) >= n)
        out[i0:i1] = mark[cell]
        return out

    def neighbors(self, v: int) -> np.ndarray:
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def neighbor_weights(self, v: int) -> np.ndarray:
        return self.weights[self.indptr[v] : self.indptr[v + 1]]

    # ------------------------------------------------------------------
    # Lazy caches used by specific models. Computed once, then reused;
    # stored via object.__setattr__ because the dataclass is frozen.
    def type_count(self) -> np.ndarray:
        """``int32[n, n_types]`` — per node, #neighbors of each type.

        Used by metapath2vec (dead-end detection: no neighbor of the
        required type terminates the walk) and fairwalk.
        """
        cached = self.__dict__.get("_type_count")
        if cached is not None:
            return cached
        tc = np.zeros((self.n, self.n_types), dtype=np.int32)
        np.add.at(tc, (self.src, self.node_type[self.indices]), 1)
        object.__setattr__(self, "_type_count", tc)
        return tc

    def attr_count(self) -> np.ndarray:
        """``int32[n, n_attrs]`` — per node, #neighbors in each attribute
        group (fairwalk's ``|K|`` denominator, Table IV)."""
        cached = self.__dict__.get("_attr_count")
        if cached is not None:
            return cached
        ac = np.zeros((self.n, self.n_attrs), dtype=np.int32)
        np.add.at(ac, (self.src, self.node_attr[self.indices]), 1)
        object.__setattr__(self, "_attr_count", ac)
        return ac

    def weight_sums(self) -> np.ndarray:
        """``float64[n]`` — per-node total static weight (rejection /
        KnightKing proposal normalizers)."""
        cached = self.__dict__.get("_weight_sums")
        if cached is not None:
            return cached
        ws = np.zeros(self.n, dtype=np.float64)
        np.add.at(ws, self.src, self.weights)
        object.__setattr__(self, "_weight_sums", ws)
        return ws

    def weight_prefix(self) -> np.ndarray:
        """``float64[m+1]`` — ``[0, cumsum(weights)]``, the global
        static-weight running sum that :class:`StaticSampler` draws from
        (the first step of second-order walks, rejection proposals)."""
        cached = self.__dict__.get("_weight_prefix")
        if cached is not None:
            return cached
        wp = np.concatenate([[0.0], np.cumsum(self.weights, dtype=np.float64)])
        object.__setattr__(self, "_weight_prefix", wp)
        return wp

    def edge_type(self) -> np.ndarray:
        """``int16[m]`` — edge type per slot, derived from unordered
        endpoint node types (edge2vec's ``Φ(u, v)``)."""
        cached = self.__dict__.get("_edge_type")
        if cached is not None:
            return cached
        tu = self.node_type[self.src].astype(np.int64)
        tv = self.node_type[self.indices].astype(np.int64)
        lo, hi = np.minimum(tu, tv), np.maximum(tu, tv)
        # Dense ids for unordered type pairs {lo, hi}.
        pair = lo * self.n_types + hi
        et = np.unique(pair, return_inverse=True)[1].astype(np.int16)
        object.__setattr__(self, "_edge_type", et)
        return et

    @property
    def n_edge_types(self) -> int:
        return int(self.edge_type().max()) + 1 if self.m else 0

    # ------------------------------------------------------------------
    def nbytes(self) -> int:
        """Approximate resident bytes of the CSR arrays (for the
        proportional memory-budget accounting, DESIGN §3)."""
        return int(
            self.indptr.nbytes
            + self.indices.nbytes
            + self.weights.nbytes
            + self.node_type.nbytes
            + self.node_attr.nbytes
        )


def from_edges(
    src: np.ndarray,
    dst: np.ndarray,
    weight: Optional[np.ndarray] = None,
    n: Optional[int] = None,
    node_type: Optional[np.ndarray] = None,
    node_attr: Optional[np.ndarray] = None,
    symmetrize: bool = True,
) -> CSRGraph:
    """Build a :class:`CSRGraph` from a directed edge array.

    Self-loops are dropped and duplicate edges collapse to their
    minimum weight; when ``symmetrize`` both directions are
    materialized, as the paper's undirected networks require.
    """
    src = np.asarray(src, dtype=np.int64)
    dst = np.asarray(dst, dtype=np.int64)
    if weight is None:
        weight = np.ones(src.shape[0], dtype=np.float64)
    weight = np.asarray(weight, dtype=np.float64)
    if n is None:
        n = int(max(src.max(initial=-1), dst.max(initial=-1))) + 1

    keep = src != dst
    src, dst, weight = src[keep], dst[keep], weight[keep]
    if symmetrize:
        src, dst = np.concatenate([src, dst]), np.concatenate([dst, src])
        weight = np.concatenate([weight, weight])

    key = src * np.int64(n) + dst
    order = np.argsort(key, kind="stable")
    key, src, dst, weight = key[order], src[order], dst[order], weight[order]
    uniq = np.ones(key.shape[0], dtype=bool)
    uniq[1:] = key[1:] != key[:-1]
    starts = np.where(uniq)[0]
    # Duplicate directed pairs collapse to the minimum weight — the same
    # deterministic rule as builder.clean_edges.
    weight = np.minimum.reduceat(weight, starts) if starts.size else weight
    src, dst = src[uniq], dst[uniq]

    deg = np.bincount(src, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(deg, out=indptr[1:])

    if node_type is None:
        node_type = np.zeros(n, dtype=np.int16)
    node_type = np.asarray(node_type, dtype=np.int16)
    if node_attr is None:
        node_attr = node_type.copy()
    node_attr = np.asarray(node_attr, dtype=np.int16)

    return CSRGraph(
        n=n,
        indptr=indptr,
        indices=dst.astype(np.int32),
        weights=weight,
        node_type=node_type,
        node_attr=node_attr,
    )
