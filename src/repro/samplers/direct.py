"""Direct edge sampler (Marsaglia '63): O(1) memory, O(d) time.

Each draw recomputes the full dynamic-weight distribution over the
current node's neighbors and inverts its CDF — no precomputation, no
state. This is the sampler used by most of the original open-source
NRL implementations (paper §V-C) and the slow-but-feasible fallback of
the memory-aware framework.
"""
from __future__ import annotations

import numpy as np

from repro.core.abstraction import WalkerBatch
from repro.samplers.base import EdgeSampler
from repro.samplers.segment import neighbor_dyn_weights, segmented_choice


class DirectSampler(EdgeSampler):
    name = "direct"

    def sample(self, wk: WalkerBatch) -> np.ndarray:
        w, lens = neighbor_dyn_weights(self.g, self.model, wk)
        off = segmented_choice(w, lens, self.rng.random(len(wk)))
        self.stats["proposals"] += len(wk)
        self.stats["accepts"] += len(wk)
        return np.where(off >= 0, self.g.indptr[wk.cur] + off, -1)
