"""Edge2vec random walk model (Gao et al., BMC Bioinf.'19; paper Eq. 3).

Node2vec extended with an edge-type transition matrix ``M``:
``w' = α · M[Φ(s,v), Φ(v,u)] · w_vu``. The paper's original learns M by
EM; the sampler only consumes M, so we use a fixed seeded stochastic
matrix (DESIGN.md §3).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.core.abstraction import SecondOrderModel, WalkerBatch, node2vec_alpha
from repro.graph.csr import CSRGraph


def default_transition_matrix(n_edge_types: int, seed: int = 0) -> np.ndarray:
    """Row-stochastic edge-type transition matrix with mild skew."""
    g = np.random.default_rng(seed + 13)
    m = 0.2 + g.random((n_edge_types, n_edge_types))
    return m / m.sum(axis=1, keepdims=True)


@dataclass
class Edge2Vec(SecondOrderModel):
    #: Optional explicit M; defaults to a seeded stochastic matrix sized
    #: to the graph's edge-type count at first use.
    M: Optional[np.ndarray] = field(default=None)
    name = "edge2vec"

    def _matrix(self, g: CSRGraph) -> np.ndarray:
        if self.M is None:
            self.M = default_transition_matrix(g.n_edge_types)
        return self.M

    def dyn_weight(self, g: CSRGraph, wk: WalkerBatch, cand_eidx: np.ndarray):
        et = g.edge_type()
        M = self._matrix(g)
        cand = g.indices[cand_eidx].astype(np.int64)
        alpha = node2vec_alpha(g, wk.prev, cand, self.p, self.q)
        trans = M[et[wk.prev_eidx], et[cand_eidx]]
        return alpha * trans * g.weights[cand_eidx]

    def weight_bound(self, g: CSRGraph) -> float:
        """The largest ``α`` times the largest ``M`` entry. The
        non-deterministic spread of M across candidate edges is what
        defeats KnightKing's outlier folding here (paper §V-E)."""
        return super().weight_bound(g) * float(self._matrix(g).max())
