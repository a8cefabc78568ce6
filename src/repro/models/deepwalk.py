"""Deepwalk random walk model (Perozzi et al., KDD'14; paper Eq. 1).

First-order: the state is the current node ``v`` and the dynamic edge
weight is the static weight ``w_vu`` — #states = |V|, the state space
of :class:`~repro.core.abstraction.RandomWalkModel`'s defaults.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.abstraction import RandomWalkModel, WalkerBatch
from repro.graph.csr import CSRGraph


@dataclass
class DeepWalk(RandomWalkModel):
    name = "deepwalk"

    def dyn_weight(self, g: CSRGraph, wk: WalkerBatch, cand_eidx: np.ndarray):
        return g.weights[cand_eidx]
