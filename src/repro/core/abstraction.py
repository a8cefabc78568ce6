"""Unified random walk model abstraction (paper §IV-B, Table IV).

A random walk model is fully specified by

* a **state** ``x`` per walker (Table IV column "State"), and
* a **dynamic edge weight** ``w'`` (Table IV column "Dynamic Weight"),

exactly the paper's ``calculateWeight`` / ``updateState`` interfaces.
Here both are *vectorized*: a :class:`WalkerBatch` carries the state
arrays of many walkers, ``dyn_weight`` evaluates ``w'`` for one
candidate edge per walker, and ``state_index`` maps each walker's state
to a flat sampler-manager slot — the 2D data layout of §IV-C
(*position* = current node, *affixture* = the rest of the state).
"""
from __future__ import annotations

from dataclasses import dataclass, replace
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

    Subclasses set :attr:`order` (1 = state is the current node or
    (type, node); 2 = state is the previous edge) and implement
    :meth:`dyn_weight` / :meth:`state_index` / :meth:`num_states`.
    """

    name: str = "abstract"
    order: int = 1
    needs_types: bool = False

    # -- the paper's calculateWeight, vectorized ------------------------
    def dyn_weight(
        self, g: CSRGraph, wk: WalkerBatch, cand_eidx: np.ndarray
    ) -> np.ndarray:
        """Dynamic weight ``w'`` of candidate edge slots ``cand_eidx``
        (global CSR slots out of each walker's current node)."""
        raise NotImplementedError

    # -- the 2D layout: walker state -> flat sampler slot ---------------
    def state_index(self, g: CSRGraph, wk: WalkerBatch) -> np.ndarray:
        raise NotImplementedError

    def num_states(self, g: CSRGraph) -> int:
        raise NotImplementedError

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
