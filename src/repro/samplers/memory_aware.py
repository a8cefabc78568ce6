"""Memory-aware edge sampler (Shao et al., SIGMOD'20) — simulated.

For second-order walks it schedules *which* states get a precomputed
(alias-cost) table under a memory budget, ranking states by expected
visit frequency per table byte; every other state falls back to the
O(d) direct draw (:func:`~repro.samplers.direct.direct_choice`). This
reproduces the comparator's defining behaviour: it always fits in
memory (handles the largest graphs) but is slow when the budget covers
few hot states (paper §V-D). The chosen states' tables are built and
queried by the alias sampler's :func:`~repro.samplers.alias.build_tables`
(streamed in chunks, in ranking order, on a thread pool of one thread
per CPU; bit-identical for any thread count) and
:func:`~repro.samplers.alias.sample_tables`.
They travel as per-entry weights, and each process sums them once, on
its first draw (:class:`~repro.samplers.alias.Tables`).
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.abstraction import RandomWalkModel, WalkerBatch
from repro.graph.csr import CSRGraph
from repro.samplers.alias import build_tables, sample_tables
from repro.samplers.base import BYTES_TABLE_ENTRY, EdgeSampler, MemoryBudget
from repro.samplers.direct import direct_choice


class MemoryAwareSampler(EdgeSampler):
    name = "memory_aware"

    def __init__(
        self,
        g: CSRGraph,
        model: RandomWalkModel,
        rng: np.random.Generator,
        budget: Optional[MemoryBudget] = None,
        table_budget_bytes: Optional[float] = None,
    ):
        super().__init__(g, model, rng, budget)
        if model.order != 2:
            raise ValueError("memory-aware sampler targets second-order models")
        # Paper §V-D: budget set to UniNet's own memory consumption —
        # LAST_x state bytes by default.
        self.table_budget = (
            table_budget_bytes if table_budget_bytes is not None else 4.0 * g.m
        )

    # ------------------------------------------------------------------
    def prepare(self) -> None:
        g, model = self.g, self.model
        # State = directed edge (s -> v); distribution over N(v).
        states = model.states(g)
        lens_all = g.degree(states.cur)
        # Expected visits of state e ≈ probability of traversing e out
        # of its source under static weights; benefit per byte decides.
        visit = g.weights / np.maximum(g.weight_sums()[g.src], 1e-300)
        cost = BYTES_TABLE_ENTRY * np.maximum(lens_all, 1)
        order = np.argsort(-(visit / cost), kind="stable")
        cum = np.cumsum(cost[order])
        k = int(np.searchsorted(cum, self.table_budget, side="right"))
        assigned = order[:k]
        self.budget.charge("memory_aware_tables", float(cum[k - 1]) if k else 0.0)

        self._tables = build_tables(
            g, model, states.take(assigned), lens_all[assigned], "memory-aware"
        )
        self._table_id = np.full(g.m, -1, dtype=np.int64)
        self._table_id[assigned] = np.arange(k)
        self.assigned_states = k

    # ------------------------------------------------------------------
    def sample(self, wk: WalkerBatch) -> np.ndarray:
        state = self.model.state_index(self.g, wk)
        tid = self._table_id[state]
        hit = tid >= 0
        out = np.full(len(wk), -1, dtype=np.int64)
        if hit.any():
            out[hit] = sample_tables(
                self._tables, tid[hit], self.g.indptr[wk.cur[hit]],
                self.rng.random(int(hit.sum())),
            )
        miss = ~hit
        if miss.any():
            out[miss] = direct_choice(
                self.g, self.model, wk.take(miss), self.rng.random(int(miss.sum()))
            )
        self.stats["proposals"] += len(wk)
        self.stats["accepts"] += len(wk)
        self.stats["table_hits"] = self.stats.get("table_hits", 0) + int(hit.sum())
        return out
