"""Edge-sampler interface, memory-budget accounting, static sampler.

All samplers share one vectorized contract: ``prepare()`` does the
upfront work (table building, state allocation — the ``T_i`` column of
Table VI), then each ``sample(wk)`` call advances a batch of walkers by
one edge, returning the chosen **global CSR edge slot** per walker
(``-1`` for walkers with no valid move).

Memory accounting is *paper-normalized* (DESIGN.md §3): samplers charge
their table bytes at the paper's per-entry costs against a budget
scaled like the paper's 96 GB server vs. each dataset's true size, so
the same samplers fail (`*` in the tables) on the same stand-ins by the
same arithmetic, without really exhausting container RAM.
"""
from __future__ import annotations

import copy
from typing import Dict, Optional

import numpy as np

from repro.core.abstraction import RandomWalkModel, WalkerBatch
from repro.graph.csr import CSRGraph
from repro.samplers.segment import window_choice

# Paper-normalized per-entry byte costs.
BYTES_TABLE_ENTRY = 12  # alias table entry: prob (f8) + alias (i4)
BYTES_STATIC_ALIAS_PER_EDGE = 12  # 1st-order alias over static weights
BYTES_MH_STATE = 4  # one LAST_x variable
#: Real (container) guardrail on flat table entries, independent of the
#: simulated budget — protects the driver from truly huge allocations.
REAL_ENTRY_CAP = 200_000_000


class MemoryBudgetExceeded(RuntimeError):
    """Raised when a sampler's simulated memory ledger exceeds budget —
    rendered as ``*`` (out of memory) in the reproduced tables."""


class MemoryBudget:
    """A simple byte ledger with an optional ceiling."""

    def __init__(self, budget_bytes: Optional[float] = None, label: str = ""):
        self.budget = budget_bytes
        self.label = label
        self.used = 0.0
        self.ledger: Dict[str, float] = {}

    def charge(self, item: str, nbytes: float) -> None:
        self.used += float(nbytes)
        self.ledger[item] = self.ledger.get(item, 0.0) + float(nbytes)
        if self.budget is not None and self.used > self.budget:
            raise MemoryBudgetExceeded(
                f"{self.label}: {item} pushes simulated memory to "
                f"{self.used / 2**30:.2f} GiB > budget {self.budget / 2**30:.2f} GiB"
            )


class EdgeSampler:
    """Common sampler contract (see module docstring)."""

    name = "abstract"

    def __init__(
        self,
        g: CSRGraph,
        model: RandomWalkModel,
        rng: np.random.Generator,
        budget: Optional[MemoryBudget] = None,
    ):
        self.g = g
        self.model = model
        self.rng = rng
        self.budget = budget if budget is not None else MemoryBudget(None)
        self.stats: Dict[str, float] = {"proposals": 0, "accepts": 0}

    def prepare(self) -> None:
        """Upfront initialization (tables, state allocation); must run
        before the first :meth:`sample`."""

    def task_copy(self) -> "EdgeSampler":
        """Copy for one walk-generation task. It shares the graph and
        the prepared read-only tables; its ``stats`` start at zero, and
        :meth:`reseed` gives it its own random stream."""
        c = copy.copy(self)
        c.stats = {"proposals": 0, "accepts": 0}
        return c

    def reseed(self, rng: np.random.Generator) -> None:
        """Swap the random stream (per-partition seeding in the engine)."""
        self.rng = rng

    def sample(self, wk: WalkerBatch) -> np.ndarray:
        """Advance each walker one edge; returns global edge slots."""
        raise NotImplementedError

    @property
    def acceptance_ratio(self) -> float:
        p = self.stats.get("proposals", 0)
        return float(self.stats.get("accepts", 0)) / p if p else 1.0


class StaticSampler(EdgeSampler):
    """Exact sampling proportional to **static** edge weights.

    O(log d) per draw via the graph's cached global weight-prefix array
    (:meth:`CSRGraph.weight_prefix`), so ``prepare()`` is a lookup after
    its first call on a graph. Serves as:
    the first step of second-order models (the original node2vec draws
    its first edge from the static distribution), and, by inheritance,
    the proposal draw of the rejection-family samplers and the
    alias-equivalent first-order sampler of KnightKing (charged at
    alias memory cost by those subclasses).
    """

    name = "static"

    def prepare(self) -> None:
        self.wcum = self.g.weight_prefix()

    def sample_nodes(self, cur: np.ndarray) -> np.ndarray:
        """One neighbor edge slot per node in ``cur`` ∝ static w; -1 if it has none."""
        lo, hi = self.g.indptr[cur], self.g.indptr[cur + 1]
        off = window_choice(self.wcum, lo, hi, self.rng.random(cur.shape[0]))
        return np.where(off >= 0, lo + off, -1)

    def sample(self, wk: WalkerBatch) -> np.ndarray:
        return self.sample_nodes(wk.cur)
