"""Sampler manager with the paper's 2D data layout (§IV-C).

UniNet keeps one M-H sampler (= one ``LAST_x`` variable) per walker
state and must query it in O(1). The paper decomposes a state into
*(position, affixture)* and buckets samplers by position. Here the
decomposition is realized arithmetically: each model's
``state_index`` maps *(position, affixture)* to a flat slot —
``cur`` for deepwalk (empty affixture), the previous edge's global CSR
slot for the node2vec family (position = current node's bucket in CSR,
affixture = the in-bucket offset of the previous neighbor), and
``cur · |Φ| + T`` for metapath2vec — so the store is one flat int32
array with O(1) indexed access, exactly the aggregated bucket layout of
Fig. 4.
"""
from __future__ import annotations

import copy

import numpy as np

from repro.samplers.base import BYTES_MH_STATE, MemoryBudget


class SamplerManager:
    """Flat ``LAST_x`` store; ``-1`` marks an uninitialized sampler
    (after ``MHSampler.prepare()``, a stuck state)."""

    def __init__(self, num_states: int, budget: MemoryBudget | None = None):
        self.num_states = int(num_states)
        if budget is not None:
            budget.charge("mh_last_states", BYTES_MH_STATE * self.num_states)
        self.last_slot = np.full(self.num_states, -1, dtype=np.int32)

    def copy(self) -> "SamplerManager":
        """A private copy of the store, charged to no ledger."""
        c = copy.copy(self)
        c.last_slot = self.last_slot.copy()
        return c

    def get(self, state: np.ndarray) -> np.ndarray:
        return self.last_slot[state]

    def set(self, state: np.ndarray, slots: np.ndarray) -> None:
        self.last_slot[state] = slots.astype(np.int32)

    def uninitialized(self, state: np.ndarray) -> np.ndarray:
        return self.last_slot[state] < 0

    @property
    def initialized_count(self) -> int:
        return int((self.last_slot >= 0).sum())

    def nbytes(self) -> int:
        return int(self.last_slot.nbytes)
