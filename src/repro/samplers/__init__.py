"""Edge-sampler registry.

``make_sampler(name, ...)`` builds any of the paper's samplers:
``mh`` (+ ``mh-random`` / ``mh-weight`` / ``mh-burn`` shorthands for the
initialization strategies of §III-C), ``alias``, ``direct``,
``rejection``, ``knightking``, ``memory_aware``.
"""
from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.abstraction import RandomWalkModel
from repro.graph.csr import CSRGraph
from repro.samplers.alias import TableSampler
from repro.samplers.base import (
    EdgeSampler,
    MemoryBudget,
    MemoryBudgetExceeded,
    StaticSampler,
)
from repro.samplers.direct import DirectSampler
from repro.samplers.knightking import KnightKingSampler
from repro.samplers.memory_aware import MemoryAwareSampler
from repro.samplers.rejection import RejectionSampler

#: Initialization strategy (§III-C) of each M-H registry name.
_MH_INITS = {"mh": "weight", "mh-random": "random", "mh-weight": "weight",
             "mh-burn": "burn"}
_SAMPLERS = {
    "alias": TableSampler,
    "direct": DirectSampler,
    "rejection": RejectionSampler,
    "knightking": KnightKingSampler,
    "memory_aware": MemoryAwareSampler,
}
SAMPLER_NAMES = (*_MH_INITS, *_SAMPLERS)


def make_sampler(
    name: str,
    g: CSRGraph,
    model: RandomWalkModel,
    rng: np.random.Generator,
    budget: Optional[MemoryBudget] = None,
    **kw,
) -> EdgeSampler:
    """Build sampler ``name``; ``kw`` goes to its constructor. An
    unknown name raises ``KeyError``, a keyword the sampler does not
    take raises ``TypeError``."""
    # Imported lazily: core.mh_sampler itself depends on samplers.base,
    # so a top-level import here would be circular.
    from repro.core.mh_sampler import MHSampler

    if name in _MH_INITS:
        return MHSampler(g, model, rng, budget, init=_MH_INITS[name], **kw)
    return _SAMPLERS[name](g, model, rng, budget, **kw)


__all__ = [
    "EdgeSampler",
    "MemoryBudget",
    "MemoryBudgetExceeded",
    "StaticSampler",
    "TableSampler",
    "DirectSampler",
    "RejectionSampler",
    "KnightKingSampler",
    "MemoryAwareSampler",
    "make_sampler",
    "SAMPLER_NAMES",
]
