"""Fairwalk random walk model (Rahman et al., IJCAI'19; paper Eq. 5).

Node2vec with per-attribute-group fairness: the dynamic weight divides
``α · w_vu`` by the number of the current node's neighbors that share
the candidate's attribute group (Table IV's ``|K|``), so each group is
selected uniformly before node2vec biasing within it. The per-state
constant ``1/|Φ|`` cancels in the M-H ratio and in normalization, so it
is omitted.
"""
from __future__ import annotations

import numpy as np

from repro.core.abstraction import SecondOrderModel, WalkerBatch, node2vec_alpha
from repro.graph.csr import CSRGraph


class FairWalk(SecondOrderModel):
    name = "fairwalk"

    def dyn_weight(self, g: CSRGraph, wk: WalkerBatch, cand_eidx: np.ndarray):
        cand = g.indices[cand_eidx].astype(np.int64)
        alpha = node2vec_alpha(g, wk.prev, cand, self.p, self.q)
        cnt = g.attr_count()[wk.cur, g.node_attr[cand]]
        return alpha * g.weights[cand_eidx] / np.maximum(cnt, 1)
