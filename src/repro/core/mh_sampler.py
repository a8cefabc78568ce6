"""The Metropolis-Hastings based edge sampler (paper §III, Alg. 1).

Per walker state ``x`` the sampler runs an M-H chain over the current
node's neighbor slots with a **uniform** proposal ``q(·|u) = 1/deg(v)``
(symmetric, so the acceptance ratio reduces to
``min(1, w'_cand / w'_last)``) and the model's *unnormalized* dynamic
edge weight as target. Time and memory are O(1) per sample — only the
``LAST_x`` slot is stored, in the :class:`SamplerManager` 2D layout.

Initialization strategies (§III-C), applied lazily the first time a
state is touched:

* ``random`` — uniform neighbor slot, O(1);
* ``weight`` (high-weight) — approximate argmax of the dynamic weight
  over ``hw_samples`` uniformly-drawn neighbors (the paper's sampled
  high-weight initialization);
* ``burn`` — classical burn-in: run ``burn_in`` M-H iterations and
  discard them (paper uses 100 after tuning).

Everything is vectorized over the walker batch.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.abstraction import RandomWalkModel, WalkerBatch
from repro.core.sampler_manager import SamplerManager
from repro.graph.csr import CSRGraph
from repro.samplers.base import EdgeSampler, MemoryBudget
from repro.samplers.segment import neighbor_dyn_weights, segmented_argmax

_INIT_STRATEGIES = ("random", "weight", "burn")
_RETRY_ROUNDS = 6  # uniform redraws before _retry_invalid's exact scan


class MHSampler(EdgeSampler):
    """UniNet's M-H based edge sampler (Algorithm 1), batched."""

    name = "mh"

    def __init__(
        self,
        g: CSRGraph,
        model: RandomWalkModel,
        rng: np.random.Generator,
        budget: Optional[MemoryBudget] = None,
        init: str = "weight",
        burn_in: int = 100,
        hw_samples: int = 8,
    ):
        super().__init__(g, model, rng, budget)
        if init not in _INIT_STRATEGIES:
            raise ValueError(f"init must be one of {_INIT_STRATEGIES}, got {init!r}")
        self.init = init
        self.burn_in = int(burn_in)
        self.hw_samples = int(hw_samples)
        self.manager: Optional[SamplerManager] = None

    # ------------------------------------------------------------------
    def prepare(self) -> None:
        """Allocate the LAST_x store (the paper's M-H ``T_i``)."""
        self.manager = SamplerManager(self.model.num_states(self.g), self.budget)
        self._prepared = True

    def task_copy(self) -> "MHSampler":
        """A copy with an empty ``LAST_x`` store. The store was charged
        to the memory ledger once, by :meth:`prepare`."""
        c = super().task_copy()
        if self.manager is not None:
            c.manager = SamplerManager(self.manager.num_states)
        return c

    # ------------------------------------------------------------------
    def _accept(
        self, w_cand: np.ndarray, w_last: np.ndarray, u: np.ndarray
    ) -> np.ndarray:
        """Vectorized acceptance: ``u < min(1, w_cand / w_last)``; a
        last sample with zero weight (possible only via random init on
        constrained models) is always replaced by a valid candidate."""
        ratio = np.where(w_last > 0.0, w_cand / np.maximum(w_last, 1e-300), 0.0)
        return np.where(w_last > 0.0, u < ratio, w_cand > 0.0)

    def _uniform_slot(self, deg: np.ndarray) -> np.ndarray:
        """One uniform neighbor slot per degree in ``deg``: the proposal
        ``q(·|u) = 1/deg`` and the random draws of initialization."""
        return np.minimum((self.rng.random(len(deg)) * deg).astype(np.int64), deg - 1)

    def _transition(
        self,
        slot: np.ndarray,
        w_slot: np.ndarray,
        cand_slot: np.ndarray,
        w_cand: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Accept or reject the candidates; returns (new slot, its weight)."""
        acc = self._accept(w_cand, w_slot, self.rng.random(len(slot)))
        self.stats["proposals"] += len(slot)
        self.stats["accepts"] += int(acc.sum())
        return np.where(acc, cand_slot, slot), np.where(acc, w_cand, w_slot)

    def _mh_iterate(
        self, wk: WalkerBatch, slot: np.ndarray, w_slot: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """One M-H transition for a batch; returns (new slot, its weight)."""
        cand_slot = self._uniform_slot(self.g.degree(wk.cur))
        w_cand = self.model.dyn_weight(self.g, wk, self.g.indptr[wk.cur] + cand_slot)
        return self._transition(slot, w_slot, cand_slot, w_cand)

    def _retry_invalid(
        self, wk: WalkerBatch, slot: np.ndarray, w: np.ndarray
    ) -> np.ndarray:
        """Resample initial slots whose dynamic weight ``w`` is zero
        (hard constraints, e.g. metapath type mismatch) — an initial
        sample in a zero-probability region would otherwise emit one
        invalid edge before the chain self-corrects."""
        deg, start = self.g.degree(wk.cur), self.g.indptr[wk.cur]
        for _ in range(_RETRY_ROUNDS):
            bad = w <= 0.0
            if not bad.any():
                break
            retry = self._uniform_slot(deg[bad])
            w_retry = self.model.dyn_weight(self.g, wk.take(bad), start[bad] + retry)
            better = w_retry > 0.0
            idx = np.where(bad)[0][better]
            slot[idx] = retry[better]
            w[idx] = w_retry[better]
        bad = w <= 0.0
        if bad.any():
            # Rare valid neighbors (e.g. one matching type among many):
            # uniform retries can miss them all — fall back to an exact
            # scan of the stubborn walkers' adjacency so a state with
            # any valid neighbor is never initialized invalid.
            best = segmented_argmax(
                *neighbor_dyn_weights(self.g, self.model, wk.take(bad))
            )
            found = best >= 0
            slot[np.where(bad)[0][found]] = best[found]
        return slot

    # ------------------------------------------------------------------
    def _initialize(self, wk: WalkerBatch, state: np.ndarray) -> None:
        """Lazily initialize first-touch states for the walkers ``wk``."""
        g = self.g
        deg = g.degree(wk.cur)
        start = g.indptr[wk.cur]
        if self.init == "weight":
            # Approximate high-weight: argmax of dyn weight over
            # hw_samples uniform candidate slots per state (§III-C).
            k, K = len(wk), self.hw_samples
            slots = self._uniform_slot(np.repeat(deg, K))
            w = self.model.dyn_weight(g, wk.repeat(K), np.repeat(start, K) + slots)
            w = w.reshape(k, K)
            best = np.argmax(w, axis=1)
            rows = np.arange(k)
            slot = slots.reshape(k, K)[rows, best]
            slot = self._retry_invalid(wk, slot, w[rows, best])
        else:
            slot = self._uniform_slot(deg)
            w = self.model.dyn_weight(g, wk, start + slot)
            if self.init == "random":
                slot = self._retry_invalid(wk, slot, w)
            else:  # burn-in
                for _ in range(self.burn_in):
                    slot, w = self._mh_iterate(wk, slot, w)
        self.manager.set(state, slot)

    # ------------------------------------------------------------------
    def sample(self, wk: WalkerBatch) -> np.ndarray:
        """Algorithm 1, batched: one M-H draw per walker; returns the
        chosen global edge slot (the state's updated LAST_x)."""
        if self.manager is None:
            self.prepare()
        g = self.g
        state = self.model.state_index(g, wk)
        need = self.manager.uninitialized(state)
        if need.any():
            self._initialize(wk.take(need), state[need])

        start = g.indptr[wk.cur]
        last = self.manager.get(state).astype(np.int64)
        cand = self._uniform_slot(g.degree(wk.cur))
        # w_last and w_cand in one dyn_weight call (one edge search):
        # walker i's last slot at 2i, its candidate at 2i + 1.
        pairs = np.repeat(start, 2) + np.column_stack([last, cand]).ravel()
        w = self.model.dyn_weight(g, wk.repeat(2), pairs).reshape(-1, 2)
        new_slot, _ = self._transition(last, w[:, 0], cand, w[:, 1])
        self.manager.set(state, new_slot)
        return start + new_slot
