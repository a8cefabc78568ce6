"""Rejection edge sampler (paper §I Challenge 1; Yang et al. SOSP'19).

Draws a candidate from the **static-weight proposal** distribution
(sampled via alias-cost tables, which is exactly the memory bottleneck
the paper attributes to this family on billion-edge graphs) and accepts
with probability ``w'(e) / (bound · w(e))`` where ``bound`` upper-bounds
the dynamic/static weight ratio of the model. Time per accepted sample
is geometric in the acceptance ratio θ — hence the parameter
sensitivity of Table II.
"""
from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.core.abstraction import RandomWalkModel, WalkerBatch
from repro.graph.csr import CSRGraph
from repro.models.edge2vec import Edge2Vec
from repro.samplers.base import (
    BYTES_STATIC_ALIAS_PER_EDGE,
    EdgeSampler,
    MemoryBudget,
    StaticSampler,
)

_MAX_ROUNDS = 10_000


def rejection_rounds(stats: dict, wk: WalkerBatch, step: Callable) -> np.ndarray:
    """Up to ``_MAX_ROUNDS`` rejection rounds; returns each walker's
    accepted edge slot, ``-1`` if none. ``step(wk.take(pending),
    pending)`` proposes a slot per pending walker (``-1`` if it has no
    neighbor, which ends the walker whatever the verdict) and says which
    it accepts. Proposals and accepts are counted in ``stats``."""
    out = np.full(len(wk), -1, dtype=np.int64)
    pending = np.arange(len(wk))
    for _ in range(_MAX_ROUNDS):
        if pending.shape[0] == 0:
            break
        eidx, acc = step(wk.take(pending), pending)
        none = eidx < 0
        acc &= ~none
        stats["proposals"] += int(pending.shape[0])
        stats["accepts"] += int(acc.sum())
        out[pending[acc]] = eidx[acc]
        pending = pending[~(acc | none)]
    return out


def proposal_bound(g: CSRGraph, model: RandomWalkModel) -> float:
    """An upper bound ``b`` with ``w'(e) <= b · w(e)`` for every edge.

    node2vec / fairwalk: ``max(1, 1/p, 1/q)``; edge2vec additionally
    multiplies by ``max(M)``; first-order models: 1.
    """
    b = 1.0
    if hasattr(model, "alpha_bound"):
        b = model.alpha_bound()
    if isinstance(model, Edge2Vec):
        b *= model.trans_bound(g)
    return float(b)


class RejectionSampler(EdgeSampler):
    name = "rejection"

    def __init__(
        self,
        g: CSRGraph,
        model: RandomWalkModel,
        rng: np.random.Generator,
        budget: Optional[MemoryBudget] = None,
    ):
        super().__init__(g, model, rng, budget)
        self._static = StaticSampler(g, model, rng)
        self._bound = proposal_bound(g, model)

    def reseed(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self._static.rng = rng

    def prepare(self) -> None:
        # The proposal is "simple" but still alias-sampled for speed
        # (paper §V-D) — charge the 1st-order alias table bytes.
        self.budget.charge(
            "rejection_proposal_alias", BYTES_STATIC_ALIAS_PER_EDGE * self.g.m
        )
        self._static.prepare()
        self._prepared = True

    def sample(self, wk: WalkerBatch) -> np.ndarray:
        if not self._prepared:
            self.prepare()
        g = self.g

        def step(sub: WalkerBatch, pending: np.ndarray):
            eidx = self._static.sample_nodes(sub.cur)
            wdyn = self.model.dyn_weight(g, sub, eidx)
            acc_p = wdyn / (self._bound * g.weights[eidx])
            return eidx, self.rng.random(len(sub)) < acc_p

        return rejection_rounds(self.stats, wk, step)
