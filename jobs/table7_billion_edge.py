"""Table VII — node2vec random walk generation on billion-edge stand-ins.

Compares seven edge samplers (Alias, Rejection, KnightKing,
Memory-Aware, UniNet Rand / Burn / Weight) across five (p, q)
configurations on the Twitter and Web-UK stand-ins. Each cell is the
wall time of distributed walk generation (sampler ``prepare()`` + Spark
walks); ``*`` marks a sampler whose paper-scaled memory ledger exceeds
budget — by the same arithmetic as the paper's 96 GB server, so the
star pattern (Alias everywhere; Rejection/KnightKing on Web-UK)
reproduces structurally.

Each cell runs ``NUM_WALKS`` walks per node (the paper uses 10; noted
in EXPERIMENTS.md).

Run: ``python jobs/table7_billion_edge.py``.
"""
from __future__ import annotations

import numpy as np

from repro.bench_utils import Timer, paper_budget, print_table
from repro.datasets import DATASETS, load
from repro.models import make_model
from repro.samplers import MemoryBudgetExceeded, make_sampler
from repro.walks.engine import count_walk_tokens, generate_walks

#: Walks per node (the paper uses 10).
NUM_WALKS = 2
STAND_INS = ("twitter_sim", "webuk_sim")
PQ_GRID = [(1, 0.25), (0.25, 1), (1, 1), (1, 4), (4, 1)]
SAMPLERS = [
    ("Alias", "alias"),
    ("Rejection", "rejection"),
    ("KnightKing", "knightking"),
    ("Memory-Aware", "memory_aware"),
    ("UniNet(Rand)", "mh-random"),
    ("UniNet(Burn)", "mh-burn"),
    ("UniNet(Weight)", "mh-weight"),
]

#: Paper Table VII (seconds; '*' = OOM) for EXPERIMENTS.md diffs.
PAPER = {
    "twitter_sim": {
        "Alias": ["*"] * 5,
        "Rejection": [4228.02, 11304.2, 4092.19, 10084.9, 4157.18],
        "KnightKing": [3601.43, 1601.31, 1251.30, 9307.82, 3310.29],
        "Memory-Aware": [4103.29, 8059.83, 3982.45, 8045.32, 4028.53],
        "UniNet(Rand)": [2535.48, 2468.39, 2503.48, 2493.29, 2539.40],
        "UniNet(Burn)": [4363.32, 4225.56, 4376.47, 4301.55, 4378.56],
        "UniNet(Weight)": [3320.43, 3702.18, 2801.20, 3245.10, 3702.17],
    },
    "webuk_sim": {
        "Alias": ["*"] * 5,
        "Rejection": ["*"] * 5,
        "KnightKing": ["*"] * 5,
        "Memory-Aware": [6895.33, 12053.82, 5903.24, 11393.63, 6023.64],
        "UniNet(Rand)": [2989.39, 2830.48, 3107.99, 2846.49, 3028.39],
        "UniNet(Burn)": [6628.33, 6273.48, 6675.29, 6518.90, 6597.29],
        "UniNet(Weight)": [4820.30, 5220.30, 3184.28, 3823.40, 4502.10],
    },
}


def run_cell(spark, ds: str, sampler: str, p: float, q: float,
             num_walks: int, walk_length: int = 80):
    g = load(ds)
    spec = DATASETS[ds]
    model = make_model("node2vec", p=p, q=q)
    budget = paper_budget(spec, g)
    s = make_sampler(sampler, g, model, np.random.default_rng(5), budget)
    try:
        with Timer() as t:
            s.prepare()
            walks = generate_walks(
                spark, g, model, num_walks=num_walks, walk_length=walk_length,
                prepared=s, seed=5,
            )
            count_walk_tokens(walks)
    except MemoryBudgetExceeded:
        return "*"
    return t.s


def main(spark=None):
    own = spark is None
    if own:
        from repro.bench_utils import get_or_create_spark

        spark = get_or_create_spark("table7")
        spark.sparkContext.setLogLevel("ERROR")
    results = {}
    for ds in STAND_INS:
        rows = []
        for label, sampler in SAMPLERS:
            cells = []
            for p, q in PQ_GRID:
                v = run_cell(spark, ds, sampler, p, q, NUM_WALKS)
                cells.append(v)
                print(f"  {ds} {label} (p={p},q={q}): {v}", flush=True)
            paper_cells = PAPER.get(ds, {}).get(label, ["-"] * 5)
            rows.append(
                [label]
                + [c if isinstance(c, str) else f"{c:.1f}" for c in cells]
                + ["|"]
                + [str(c) for c in paper_cells]
            )
        results[ds] = rows
        print_table(
            f"Table VII — node2vec walk generation on {ds} "
            f"(ours, {NUM_WALKS} walks/node | paper, 10 walks/node)",
            ["sampler"] + [f"({p},{q})" for p, q in PQ_GRID] + ["|"]
            + [f"p({p},{q})" for p, q in PQ_GRID],
            rows,
        )
    if own:
        spark.stop()
    return results


if __name__ == "__main__":
    main()
