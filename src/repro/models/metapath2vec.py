"""Metapath2vec random walk model (Dong et al., KDD'17; paper Eq. 4).

The walk is constrained to follow a metapath of node types; the state
is ``(T, v)`` where ``T`` is the next required type — #states =
|V| · #types. Candidates of the wrong type get dynamic weight 0.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.abstraction import RandomWalkModel, WalkerBatch
from repro.graph.csr import CSRGraph


@dataclass
class MetaPath2Vec(RandomWalkModel):
    #: e.g. [0, 1, 0] ~ "A-P-A"; must start and usually end on the same
    #: type so the pattern tiles along the walk.
    metapath: List[int] = field(default_factory=lambda: [0, 1, 0])
    name = "metapath2vec"

    def __post_init__(self):
        mp = list(self.metapath)
        if not mp:
            raise ValueError("metapath must name at least one node type")
        # The repeating cycle of types along the walk.
        self._cycle = mp[:-1] if len(mp) > 1 and mp[0] == mp[-1] else mp

    def _n_types(self, g: CSRGraph) -> int:
        """``g.n_types``, once every metapath type is checked to be one
        of them: a missing type would index past ``g.type_count()``."""
        T = g.n_types
        missing = sorted({t for t in self.metapath if not 0 <= t < T})
        if missing:
            raise ValueError(
                f"metapath {list(self.metapath)} names node type(s) {missing} "
                f"missing from a graph with {T} node type(s)"
            )
        return T

    def dyn_weight(self, g: CSRGraph, wk: WalkerBatch, cand_eidx: np.ndarray):
        cand = g.indices[cand_eidx].astype(np.int64)
        ok = g.node_type[cand] == wk.req_type
        return np.where(ok, g.weights[cand_eidx], 0.0)

    def state_index(self, g: CSRGraph, wk: WalkerBatch) -> np.ndarray:
        return wk.cur * np.int64(g.n_types) + wk.req_type

    def num_states(self, g: CSRGraph) -> int:
        return g.n * self._n_types(g)

    def states(
        self, g: CSRGraph, lo: int = 0, hi: Optional[int] = None
    ) -> WalkerBatch:
        """One walker per (node, required type) state ``lo..hi-1``, in
        state-index order."""
        T = self._n_types(g)
        states = np.arange(lo, g.n * T if hi is None else hi, dtype=np.int64)
        none = np.full_like(states, -1)
        return WalkerBatch(
            cur=states // T, prev=none, prev_eidx=none,
            req_type=(states % T).astype(np.int16),
        )

    def start_nodes(self, g: CSRGraph) -> np.ndarray:
        self._n_types(g)
        return np.where(g.node_type == self._cycle[0])[0].astype(np.int64)

    def required_type(self, g: CSRGraph, step: int, start_type: np.ndarray):
        """Type required of the node reached at ``step`` (start = 0)."""
        self._n_types(g)
        c = self._cycle
        return np.full_like(start_type, c[step % len(c)], dtype=np.int16)

    def stuck(self, g: CSRGraph, wk: WalkerBatch) -> np.ndarray:
        """Dead end: no neighbor of the required type (or no neighbor)."""
        base = g.degree(wk.cur) == 0
        tc = g.type_count()
        has = tc[wk.cur, wk.req_type] > 0
        return base | ~has
