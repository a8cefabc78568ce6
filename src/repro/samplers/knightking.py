"""KnightKing-like sampler (Yang et al., SOSP'19) — simulated comparator.

KnightKing's defining behaviours reproduced here (DESIGN.md §3):

* **first-order models**: exact alias sampling of the static
  distribution (O(1) draw, alias memory charge) — with a type-rejection
  wrapper for metapath2vec;
* **node2vec**: rejection sampling with **outlier folding** of the
  single 1/p "return" edge. The target ``α·w`` is decomposed exactly as
  ``min(α, b)·w + excess·δ_prev`` with ``b = max(1, 1/q)``: the excess
  mass of the one outlier is sampled directly, the rest by rejection
  under the tighter bound ``b``. This reproduces KnightKing's asymmetry:
  varying ``p`` stays fast (one foldable outlier), varying ``q`` < 1
  inflates the bound over *many* edges and degrades throughput
  (paper Fig. 7 discussion);
* **edge2vec / fairwalk**: plain rejection — heterogeneous information
  makes outliers non-deterministic, so folding is unavailable
  (paper §V-D/§V-E).
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.abstraction import RandomWalkModel, WalkerBatch, node2vec_alpha
from repro.graph.csr import CSRGraph
from repro.models.metapath2vec import MetaPath2Vec
from repro.models.node2vec import Node2Vec
from repro.samplers.base import (
    BYTES_STATIC_ALIAS_PER_EDGE,
    EdgeSampler,
    MemoryBudget,
    StaticSampler,
)
from repro.samplers.rejection import RejectionSampler, _MAX_ROUNDS


class KnightKingSampler(EdgeSampler):
    name = "knightking"

    def __init__(
        self,
        g: CSRGraph,
        model: RandomWalkModel,
        rng: np.random.Generator,
        budget: Optional[MemoryBudget] = None,
    ):
        super().__init__(g, model, rng, budget)
        self._static = StaticSampler(g, model, rng)
        if isinstance(model, Node2Vec):
            self._mode = "fold"
        elif model.order == 2:
            self._mode = "reject"
            self._rej = RejectionSampler(g, model, rng, MemoryBudget(None))
        else:
            self._mode = "first_order"

    def reseed(self, rng: np.random.Generator) -> None:
        self.rng = rng
        self._static.rng = rng
        if self._mode == "reject":
            self._rej.reseed(rng)

    def prepare(self) -> None:
        # Proposal / first-order draws are alias-backed in KnightKing.
        self.budget.charge(
            "knightking_alias", BYTES_STATIC_ALIAS_PER_EDGE * self.g.m
        )
        self._static.prepare()
        if self._mode == "reject":
            # Its private MemoryBudget(None) absorbs the proposal charge.
            self._rej.prepare()
        self._prepared = True

    # ------------------------------------------------------------------
    def _sample_first_order(self, wk: WalkerBatch) -> np.ndarray:
        g = self.g
        if not isinstance(self.model, MetaPath2Vec):
            eidx = self._static.sample_nodes(wk.cur)
            self.stats["proposals"] += len(wk)
            self.stats["accepts"] += len(wk)
            return eidx
        # Metapath: alias draw + reject wrong-typed candidates.
        out = np.full(len(wk), -1, dtype=np.int64)
        pending = np.arange(len(wk))
        for _ in range(_MAX_ROUNDS):
            sub = wk.take(pending)
            eidx = self._static.sample_nodes(sub.cur)
            acc = g.node_type[g.indices[eidx]] == sub.req_type
            self.stats["proposals"] += int(pending.shape[0])
            self.stats["accepts"] += int(acc.sum())
            out[pending[acc]] = eidx[acc]
            pending = pending[~acc]
            if pending.shape[0] == 0:
                break
        return out

    def _sample_node2vec_folded(self, wk: WalkerBatch) -> np.ndarray:
        g = self.g
        m: Node2Vec = self.model
        b = max(1.0, 1.0 / m.q)
        inv_p = 1.0 / m.p
        out = np.full(len(wk), -1, dtype=np.int64)

        # Envelope = b·w over all neighbors + the excess point mass of
        # the single return edge (cur -> prev): exactly covers α·w.
        back_eidx = g.edge_index(wk.cur, wk.prev)
        excess = np.where(
            back_eidx >= 0, g.weights[np.maximum(back_eidx, 0)], 0.0
        ) * max(inv_p - b, 0.0)
        fold_p = excess / (excess + g.weight_sums()[wk.cur] * b)

        pending = np.arange(len(wk))
        for _ in range(_MAX_ROUNDS):
            if pending.shape[0] == 0:
                break
            sub = wk.take(pending)
            k = pending.shape[0]
            # Each retry re-draws from the full envelope mixture: the
            # fold branch is pre-accepted (its mass is exact), the
            # general branch is rejection-tested under the tight bound.
            fold = self.rng.random(k) < fold_p[pending]
            eidx = self._static.sample_nodes(sub.cur)
            cand = g.indices[eidx].astype(np.int64)
            alpha = np.minimum(node2vec_alpha(g, sub.prev, cand, m.p, m.q), b)
            acc = self.rng.random(k) < alpha / b
            eidx = np.where(fold, back_eidx[pending], eidx)
            acc = fold | acc
            self.stats["proposals"] += k
            self.stats["accepts"] += int(acc.sum())
            out[pending[acc]] = eidx[acc]
            pending = pending[~acc]
        return out

    # ------------------------------------------------------------------
    def sample(self, wk: WalkerBatch) -> np.ndarray:
        if not self._prepared:
            self.prepare()
        if self._mode == "first_order":
            return self._sample_first_order(wk)
        if self._mode == "fold":
            return self._sample_node2vec_folded(wk)
        before = dict(self._rej.stats)
        out = self._rej.sample(wk)
        for k in ("proposals", "accepts"):
            self.stats[k] += self._rej.stats[k] - before[k]
        return out
