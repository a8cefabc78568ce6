"""The Metropolis-Hastings based edge sampler (paper §III, Alg. 1).

Per walker state ``x`` the sampler runs an M-H chain over the current
node's neighbor slots with a **uniform** proposal ``q(·|u) = 1/deg(v)``
(symmetric, so the acceptance ratio reduces to
``min(1, w'_cand / w'_last)``) and the model's *unnormalized* dynamic
edge weight as target. Time and memory are O(1) per sample — only the
``LAST_x`` slot is stored.

The ``LAST_x`` store is the paper's sampler manager with its 2D data
layout (§IV-C): one int32 array ``last_slot`` with one entry per walker
state, ``-1`` for a state that has none. The model's ``state_index``
maps *(position, affixture)* to the entry arithmetically — ``cur`` for
deepwalk, the previous edge's global CSR slot for the node2vec family,
``cur · |Φ| + T`` for metapath2vec — so each query is one O(1) index,
the aggregated bucket layout of Fig. 4.

Initialization strategies (§III-C), applied by :meth:`MHSampler.prepare`
to every state a walk can leave (Table VI's M-H ``T_i``):

* ``random`` — uniform neighbor slot, O(1);
* ``weight`` (high-weight) — approximate argmax of the dynamic weight
  over ``hw_samples`` uniformly-drawn neighbors (the paper's sampled
  high-weight initialization);
* ``burn`` — classical burn-in: run ``burn_in`` M-H iterations and
  discard them (paper uses 100 after tuning).

``prepare()`` runs the initialization over the model's states
(``RandomWalkModel.states``) in fixed chunks of states on the shared
thread pool (:mod:`repro.samplers.pool`), as UniNet's
threads initialize one shared ``LAST_x`` array. Chunk ``a`` draws from
its own stream, seeded by (one seed drawn from the sampler's ``rng``,
``a``), so the store is bit-identical for any thread count. States the
model calls stuck (``RandomWalkModel.stuck``: an isolated node, a
metapath state with no neighbor of the required type) keep ``-1``, and
:meth:`MHSampler.sample` returns ``-1`` for them. The engine ships the
initialized store in its broadcast, and each task evolves the chains
of its own copy (:meth:`MHSampler.task_copy`).

Everything is vectorized over the walker batch.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.abstraction import RandomWalkModel, WalkerBatch
from repro.graph.csr import CSRGraph
from repro.samplers import pool
from repro.samplers.base import BYTES_MH_STATE, EdgeSampler, MemoryBudget
from repro.samplers.segment import neighbor_dyn_weights, segmented_argmax

_INIT_STRATEGIES = ("random", "weight", "burn")
_RETRY_ROUNDS = 6  # uniform redraws before _retry_invalid's exact scan
#: (state, candidate) entries per initialization chunk: a chunk holds
#: ``_INIT_CHUNK_ENTRIES // hw_samples`` states for high-weight init,
#: else this many. The chunk bounds fix the random streams, so they
#: depend on the strategy, never on the thread count. Chunks much
#: smaller than this spend their time queueing for the GIL between
#: numpy calls, and the pool runs slower than one thread.
_INIT_CHUNK_ENTRIES = 1 << 16


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

    # ------------------------------------------------------------------
    def prepare(self) -> None:
        """Allocate the LAST_x store and initialize every state a walk
        can leave (the paper's M-H ``T_i``; see the module docstring).

        Each chunk runs on a shallow copy with its own stream and
        ``stats``: it writes its own states' slots of the shared store,
        and its burn-in proposals count in no ``stats``."""
        g, model = self.g, self.model
        num_states = model.num_states(g)
        self.budget.charge("mh_last_states", BYTES_MH_STATE * num_states)
        self.last_slot = np.full(num_states, -1, dtype=np.int32)
        seed = int(self.rng.integers(1 << 63))

        def init_chunk(a: int, b: int) -> None:
            c = EdgeSampler.task_copy(self)
            c.reseed(np.random.default_rng((seed, a)))
            # Descending state order: node2vec's membership queries then
            # take edge_index's batch search, not a (rows x n) marker
            # array per pool thread (CSRGraph.has_edge).
            wk = model.states(g, a, b).take(slice(None, None, -1))
            state = np.arange(b - 1, a - 1, -1, dtype=np.int64)
            live = ~model.stuck(g, wk)
            c._initialize(wk.take(live), state[live])

        per_state = self.hw_samples if self.init == "weight" else 1
        chunk = max(1, _INIT_CHUNK_ENTRIES // per_state)
        pool.run_chunks(init_chunk, num_states, chunk, per_state,
                        name="mh-init")

    def task_copy(self) -> "MHSampler":
        """A copy with a private copy of the initialized ``LAST_x``
        store, so each task evolves its own chains from the same start.
        The store was charged to the memory ledger once, by
        :meth:`prepare`."""
        c = super().task_copy()
        c.last_slot = self.last_slot.copy()
        return c

    # ------------------------------------------------------------------
    def _accept(
        self, w_cand: np.ndarray, w_last: np.ndarray, u: np.ndarray
    ) -> np.ndarray:
        """Vectorized acceptance: ``u < min(1, w_cand / w_last)``; a
        last sample with zero weight (the burn-in's uniform start on
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
        """Initialize the LAST_x slots ``state`` of the walkers ``wk``,
        none of them stuck, by the sampler's strategy."""
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
            if self.init == "burn":
                for _ in range(self.burn_in):
                    slot, w = self._mh_iterate(wk, slot, w)
            slot = self._retry_invalid(wk, slot, w)
        self.last_slot[state] = slot

    # ------------------------------------------------------------------
    def sample(self, wk: WalkerBatch) -> np.ndarray:
        """Algorithm 1, batched: one M-H draw per walker; returns the
        chosen global edge slot (the state's updated LAST_x), ``-1``
        for a state :meth:`prepare` left uninitialized (stuck)."""
        g = self.g
        state = self.model.state_index(g, wk)
        start = g.indptr[wk.cur]
        last = self.last_slot[state].astype(np.int64)
        cand = self._uniform_slot(g.degree(wk.cur))
        # w_last and w_cand in one dyn_weight call (one edge search):
        # walker i's last slot at 2i, its candidate at 2i + 1.
        pairs = np.repeat(start, 2) + np.column_stack([last, cand]).ravel()
        w = self.model.dyn_weight(g, wk.repeat(2), pairs).reshape(-1, 2)
        new_slot, _ = self._transition(last, w[:, 0], cand, w[:, 1])
        new_slot[last < 0] = -1
        self.last_slot[state] = new_slot
        return np.where(new_slot >= 0, start + new_slot, -1)
