"""KnightKing-like sampler (Yang et al., SOSP'19) — simulated comparator.

KnightKing's defining behaviours reproduced here (DESIGN.md §3):

* **one rejection test for every model**, drawing its proposals from
  the static distribution by alias (O(1) draw, alias memory charge).
  For deepwalk the accept probability ``w / (1·w)`` is 1, so a draw is
  an exact static alias draw; for metapath2vec it is 1 or 0 by the
  candidate's type, a type-rejection wrapper around that draw;
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

import numpy as np

from repro.core.abstraction import WalkerBatch, node2vec_alpha
from repro.models.node2vec import Node2Vec
from repro.samplers.rejection import RejectionSampler, rejection_rounds


class KnightKingSampler(RejectionSampler):
    """Inherits rejection's alias-charged proposal draw, its ``prepare``
    and, for every model but node2vec, its ``sample``."""

    name = "knightking"
    # Proposal draws are alias-backed in KnightKing.
    ledger_item = "knightking_alias"

    def _sample_node2vec_folded(self, wk: WalkerBatch) -> np.ndarray:
        g = self.g
        m: Node2Vec = self.model
        b = max(1.0, 1.0 / m.q)
        inv_p = 1.0 / m.p

        # Envelope = b·w over all neighbors + the excess point mass of
        # the single return edge (cur -> prev): exactly covers α·w.
        back_eidx = g.edge_index(wk.cur, wk.prev)
        excess = np.where(
            back_eidx >= 0, g.weights[np.maximum(back_eidx, 0)], 0.0
        ) * max(inv_p - b, 0.0)
        # 0, not 0/0, at a node without neighbors.
        fold_p = excess / np.maximum(excess + g.weight_sums()[wk.cur] * b, 1e-300)

        def step(sub: WalkerBatch, pending: np.ndarray):
            k = pending.shape[0]
            # Each retry re-draws from the full envelope mixture: the
            # fold branch is pre-accepted (its mass is exact), the
            # general branch is rejection-tested under the tight bound.
            fold = self.rng.random(k) < fold_p[pending]
            eidx = self.sample_nodes(sub.cur)
            cand = g.indices[eidx].astype(np.int64)
            alpha = np.minimum(node2vec_alpha(g, sub.prev, cand, m.p, m.q), b)
            acc = self.rng.random(k) < alpha / b
            return np.where(fold, back_eidx[pending], eidx), fold | acc

        return rejection_rounds(self.stats, wk, step)

    def sample(self, wk: WalkerBatch) -> np.ndarray:
        if isinstance(self.model, Node2Vec):
            return self._sample_node2vec_folded(wk)
        return super().sample(wk)
