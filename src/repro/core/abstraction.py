"""Unified random walk model abstraction (paper §IV-B, Table IV).

A random walk model is fully specified by

* a **state** ``x`` per walker (Table IV column "State"), and
* a **dynamic edge weight** ``w'`` (Table IV column "Dynamic Weight"),

exactly the paper's ``calculateWeight`` / ``updateState`` interfaces.
Here both are *vectorized*: a :class:`WalkerBatch` carries the state
arrays of many walkers, ``dyn_weight`` evaluates ``w'`` for one
candidate edge per walker, and ``state_index`` maps each walker's state
to its entry of the M-H sampler's flat ``LAST_x`` array — the 2D data
layout of §IV-C (*position* = current node, *affixture* = the rest of
the state).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.graph.csr import CSRGraph


@dataclass
class WalkerBatch:
    """State arrays for a batch of concurrently-advancing walkers.

    ``prev``/``prev_eidx`` are ``-1`` before the second step.
    ``req_type`` is the metapath-required type of the *next* node
    (metapath2vec only, else ``None``).
    """

    cur: np.ndarray
    prev: np.ndarray
    prev_eidx: np.ndarray
    req_type: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return int(self.cur.shape[0])

    def take(self, idx: np.ndarray) -> "WalkerBatch":
        """Subset of walkers (boolean mask or index array)."""
        return WalkerBatch(
            cur=self.cur[idx],
            prev=self.prev[idx],
            prev_eidx=self.prev_eidx[idx],
            req_type=None if self.req_type is None else self.req_type[idx],
        )

    def repeat(self, k: int) -> "WalkerBatch":
        """Each walker repeated ``k`` times (for k-candidate inits)."""
        return WalkerBatch(
            cur=np.repeat(self.cur, k),
            prev=np.repeat(self.prev, k),
            prev_eidx=np.repeat(self.prev_eidx, k),
            req_type=None if self.req_type is None else np.repeat(self.req_type, k),
        )


class RandomWalkModel:
    """Base class: Table IV as code.

    A model owns its state space: :meth:`states` enumerates it and
    :meth:`state_index` / :meth:`num_states` lay it out flat, so
    samplers never ask which model they serve. It also owns
    :meth:`weight_bound`, the dynamic/static weight ratio bound that
    rejection-style samplers need (KnightKing's application-supplied
    upper bound). The defaults are deepwalk's: one state per node
    (:attr:`order` 1), ``w' = w``. Subclasses implement
    :meth:`dyn_weight` and override what differs.
    """

    name: str = "abstract"
    order: int = 1

    # -- the paper's calculateWeight, vectorized ------------------------
    def dyn_weight(
        self, g: CSRGraph, wk: WalkerBatch, cand_eidx: np.ndarray
    ) -> np.ndarray:
        """Dynamic weight ``w'`` of candidate edge slots ``cand_eidx``
        (global CSR slots out of each walker's current node)."""
        raise NotImplementedError

    def weight_bound(self, g: CSRGraph) -> float:
        """An upper bound ``b`` with ``w' <= b · w`` for every state and
        candidate edge of ``g``."""
        return 1.0

    # -- the 2D layout: walker state -> flat sampler slot ---------------
    def state_index(self, g: CSRGraph, wk: WalkerBatch) -> np.ndarray:
        return wk.cur

    def num_states(self, g: CSRGraph) -> int:
        return g.n

    def states(
        self, g: CSRGraph, lo: int = 0, hi: Optional[int] = None
    ) -> WalkerBatch:
        """One walker per state ``lo..hi-1`` (default: every state), in
        :meth:`state_index` order: walker ``i`` holds state ``lo + i``."""
        cur = np.arange(lo, g.n if hi is None else hi, dtype=np.int64)
        none = np.full_like(cur, -1)
        return WalkerBatch(cur=cur, prev=none, prev_eidx=none)

    # -- walk-level hooks ----------------------------------------------
    def start_nodes(self, g: CSRGraph) -> np.ndarray:
        """Nodes eligible as walk starting points (all, by default)."""
        return np.arange(g.n, dtype=np.int64)

    def required_type(self, g: CSRGraph, step: int, start_type: np.ndarray):
        """Metapath hook: required node type at ``step``; None otherwise."""
        return None

    def stuck(self, g: CSRGraph, wk: WalkerBatch) -> np.ndarray:
        """Walkers that cannot take any step (dead ends). Default: only
        zero-degree nodes."""
        return g.degree(wk.cur) == 0


@dataclass
class SecondOrderModel(RandomWalkModel):
    """The node2vec family (node2vec, edge2vec, fairwalk): the state is
    the previously traversed edge ``(s, v)`` (#states = |E| directed
    slots) and ``w'`` carries the bias :func:`node2vec_alpha` of the
    return parameter ``p`` and in-out parameter ``q``."""

    p: float = 1.0
    q: float = 1.0
    order = 2

    def state_index(self, g: CSRGraph, wk: WalkerBatch) -> np.ndarray:
        # Affixture = slot of the previous edge (s -> v): its global CSR
        # index, known for free from the step that traversed it.
        return wk.prev_eidx

    def num_states(self, g: CSRGraph) -> int:
        return g.m

    def states(
        self, g: CSRGraph, lo: int = 0, hi: Optional[int] = None
    ) -> WalkerBatch:
        """One walker per directed edge (s -> v) ``lo..hi-1``, in
        edge-source order: membership queries of :func:`node2vec_alpha`
        over these states arrive with non-decreasing ``prev`` and take
        ``has_edge``'s O(1) marker path. Built from slices of the CSR
        arrays, so a range of states costs only its own length."""
        hi = g.m if hi is None else hi
        return WalkerBatch(
            cur=g.indices[lo:hi].astype(np.int64),
            prev=g.src[lo:hi],
            prev_eidx=np.arange(lo, hi, dtype=np.int64),
        )

    def weight_bound(self, g: CSRGraph) -> float:
        """The largest ``α``."""
        return max(1.0, 1.0 / self.p, 1.0 / self.q)


def node2vec_alpha(
    g: CSRGraph,
    prev: np.ndarray,
    cand: np.ndarray,
    p: float,
    q: float,
) -> np.ndarray:
    """The node2vec bias ``α`` (Eq. 2), shared by node2vec / edge2vec /
    fairwalk: 1/p if the candidate is the previous node, 1 if it is a
    neighbor of the previous node, 1/q otherwise.

    The membership test asks ``has_edge(prev, cand)``, which equals
    ``d(cand, prev) == 1`` because every graph the repo builds is
    symmetrized (``from_edges`` by default, the Spark builder through
    ``clean_edges``). It is the search the paper charges to node2vec's
    weight (see :mod:`repro.graph.csr`): for walker batches, whose
    ``prev`` is unsorted, a sorted batch search of the global composite
    key, ``O(log m)`` per query plus its share of sorting a block of up
    to 2**21 query keys; for alias-table builds, whose ``prev`` is the
    non-decreasing edge source, an O(1) marker lookup per query.
    """
    alpha = np.full(cand.shape[0], 1.0 / q, dtype=np.float64)
    back = cand == prev
    alpha[back] = 1.0 / p
    chk = ~back
    if chk.any():
        common = np.zeros(cand.shape[0], dtype=bool)
        common[chk] = g.has_edge(prev[chk], cand[chk])
        alpha[common] = 1.0
    return alpha
