"""Node2vec random walk model (Grover & Leskovec, KDD'16; paper Eq. 2).

Second-order: the state is the previously-traversed edge ``(s, v)``
(#states = |E| directed slots) and the dynamic weight is ``α · w_vu``
with ``α ∈ {1/p, 1, 1/q}`` by the distance between the candidate and
the previous node.
"""
from __future__ import annotations

import numpy as np

from repro.core.abstraction import SecondOrderModel, WalkerBatch, node2vec_alpha
from repro.graph.csr import CSRGraph


class Node2Vec(SecondOrderModel):
    name = "node2vec"

    def dyn_weight(self, g: CSRGraph, wk: WalkerBatch, cand_eidx: np.ndarray):
        cand = g.indices[cand_eidx].astype(np.int64)
        alpha = node2vec_alpha(g, wk.prev, cand, self.p, self.q)
        return alpha * g.weights[cand_eidx]
