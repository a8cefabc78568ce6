"""The benchmark's workloads: one walk corpus (and its embeddings) each.

Every workload is a closed loop with one caller: it builds one corpus
at a time through the public API, waits for it, then builds the next
(a traced run also trains Word2Vec on it). The graph is a fixed registry
stand-in; the run's ``--seed`` only picks the random streams of the
walks and of Word2Vec.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    dataset: str
    model: str
    sampler: str
    num_walks: int
    walk_length: int = 80
    model_kw: Dict[str, float] = field(default_factory=dict)
    #: Word2Vec trains on the walks with ``walk_id < learn_walks``
    #: (``None``: the whole corpus, Table VI's ``T_l``).
    learn_walks: Optional[int] = None
    #: ``(model, sampler)`` whose ``prepare()`` on this dataset must
    #: raise ``MemoryBudgetExceeded`` under the paper-scaled budget (a
    #: ``*`` cell of Table VI).
    oom_cell: Optional[Tuple[str, str]] = None


N2V = {"p": 0.25, "q": 4.0}
#: Word2Vec settings of the Table VI learning phase.
W2V = {"dim": 32, "window": 5, "max_iter": 1}

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in [
        Workload(
            "n2v-mh-twitter",
            "model-dependent M-H path: node2vec dyn_weight and its "
            "edge_index search dominate, with many first-touch inits",
            dataset="twitter_sim",
            model="node2vec",
            model_kw=N2V,
            sampler="mh-weight",
            num_walks=1,
            learn_walks=1000,
            oom_cell=("node2vec", "alias"),
        ),
        Workload(
            "deepwalk-mh-webuk",
            "first-order M-H: no edge_index queries and few states, so "
            "kernel bookkeeping, serialization and Spark scheduling dominate",
            dataset="webuk_sim",
            model="deepwalk",
            sampler="mh-random",
            num_walks=2,
            learn_walks=1000,
            oom_cell=("node2vec", "alias"),
        ),
        Workload(
            "n2v-alias-flickr-embed",
            "Table VI UniNet (Orig) cell: driver-side alias tables and their "
            "broadcast dominate, M-H bypassed; traced, Word2Vec on the whole corpus",
            dataset="flickr_lite",
            model="node2vec",
            model_kw=N2V,
            sampler="alias",
            num_walks=1,
        ),
        # Tiny input for the benchmark's own smoke test; not a
        # BENCHMARK.json workload.
        Workload(
            "smoke",
            "smoke test of the benchmark itself",
            dataset="blogcatalog_lite",
            model="node2vec",
            model_kw=N2V,
            sampler="mh-weight",
            num_walks=10,
            walk_length=20,
        ),
    ]
}
