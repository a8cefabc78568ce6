"""Table VI — end-to-end training cost of the five NRL models.

For each (model, dataset) the paper reports T_i (init), T_w (walk),
T_l (learning), T_t (total) for three implementations:

* **Open-sourced Version** — here the naive per-walker reference
  (``baselines/reference.py``), run locally with a wall-clock cap
  (cells shown as ``>cap`` when exceeded, like the paper's ``>4h``);
* **UniNet (Orig)** — the UniNet engine with the model's original
  sampler (alias for node2vec, direct for the rest);
* **UniNet (M-H)** — the engine with the M-H sampler (high-weight
  init), the paper's contribution.

T_i is the sampler's ``prepare()`` on the driver; T_w is the wall time
of distributed walk generation (Spark ``mapInArrow`` engine), whose
count persists the corpus; T_l is MLlib Word2Vec training, with one
partition per core, on the persisted M-H corpus, so it does not re-run
walk generation (computed once per model+dataset and shared across
implementations — the learning phase is identical and outside the
paper's contribution).
``*`` marks a sampler whose simulated memory ledger exceeds the
paper-scaled budget.

The reference runs are capped at ``REF_CAP_S`` seconds, and the
billion-edge stand-ins run ``BIG_WALKS`` walks per node instead of 10
(noted in EXPERIMENTS.md).

Run: ``python jobs/table6_end_to_end.py``.
"""
from __future__ import annotations

from typing import Optional

import numpy as np
from pyspark import StorageLevel

from repro.baselines.reference import reference_walks
from repro.bench_utils import Timer, paper_budget, print_table
from repro.datasets import DATASETS, load
from repro.embedding.word2vec import train_embeddings
from repro.models import make_model
from repro.samplers import MemoryBudgetExceeded, make_sampler
from repro.walks.engine import count_walk_tokens, generate_walks

MODEL_DATASETS = {
    "deepwalk": ["blogcatalog_lite", "amazon_lite", "reddit_lite", "flickr_lite",
                 "youtube_lite", "twitter_sim", "webuk_sim"],
    "node2vec": ["blogcatalog_lite", "amazon_lite", "reddit_lite", "flickr_lite",
                 "youtube_lite", "twitter_sim", "webuk_sim"],
    "metapath2vec": ["acm_lite", "dblp_lite", "dbis_lite", "aminer_lite"],
    "edge2vec": ["acm_lite", "dblp_lite", "dbis_lite", "aminer_lite"],
    "fairwalk": ["blogcatalog_lite", "amazon_lite", "reddit_lite"],
}
#: UniNet (Orig): the model's original sampling method inside UniNet.
ORIG_SAMPLER = {"node2vec": "alias"}
BIG = {"twitter_sim", "webuk_sim"}
#: Wall-clock cap (s) of each reference run.
REF_CAP_S = 90.0
#: Walks per node on the billion-edge stand-ins (the paper uses 10).
BIG_WALKS = 2
MODEL_KW = {"node2vec": dict(p=0.25, q=4.0)}

#: Paper Table VI T_t values (Open, Orig, M-H) for EXPERIMENTS.md diffs.
PAPER_TT = {
    ("deepwalk", "blogcatalog_lite"): (25.14, 6.44, 1.51),
    ("deepwalk", "amazon_lite"): (945.02, 124.77, 36.59),
    ("deepwalk", "reddit_lite"): (649.79, 381.49, 26.46),
    ("deepwalk", "flickr_lite"): (244.26, 200.07, 12.9),
    ("deepwalk", "youtube_lite"): (3267.6, 1025.95, 178.73),
    ("deepwalk", "twitter_sim"): (">4h", ">4h", 6046.63),
    ("deepwalk", "webuk_sim"): ("*", ">4h", 10008.59),
    ("node2vec", "blogcatalog_lite"): (1795.0, 11.57, 1.80),
    ("node2vec", "amazon_lite"): (2109.1, 45.33, 35.69),
    ("node2vec", "reddit_lite"): (11442.6, 271.98, 35.29),
    ("node2vec", "flickr_lite"): (">4h", 241.88, 12.86),
    ("node2vec", "youtube_lite"): (">4h", 169.93, 150.09),
    ("node2vec", "twitter_sim"): ("*", "*", 7221.4),
    ("node2vec", "webuk_sim"): ("*", "*", 11933.7),
    ("metapath2vec", "acm_lite"): (12.24, 2.36, 0.71),
    ("metapath2vec", "dblp_lite"): (41.18, 16.79, 1.11),
    ("metapath2vec", "dbis_lite"): (184.69, 24.24, 13.92),
    ("metapath2vec", "aminer_lite"): (5320.9, 1107.3, 196.85),
    ("edge2vec", "acm_lite"): (266.24, 40.47, 0.82),
    ("edge2vec", "dblp_lite"): (1855.5, 64.85, 2.22),
    ("edge2vec", "dbis_lite"): (">4h", 1002.2, 25.6),
    ("edge2vec", "aminer_lite"): (">4h", ">4h", 609.97),
    ("fairwalk", "blogcatalog_lite"): (1998.7, 38.97, 2.35),
    ("fairwalk", "amazon_lite"): (2362.3, 117.87, 37.47),
    ("fairwalk", "reddit_lite"): (">4h", 271.44, 31.50),
}


def _fmt(v) -> str:
    return v if isinstance(v, str) else (f"{v:.2f}" if v is not None else "-")


def run_impl(
    spark,
    model_name: str,
    ds: str,
    sampler_name: str,
    num_walks: int,
    walk_length: int,
):
    """(T_i, T_w, corpus) for one UniNet implementation, or
    ('*', '*', None) on OOM. The corpus is persisted by the ``T_w``
    count, so learning on it does not regenerate the walks; the caller
    unpersists it."""
    g = load(ds)
    spec = DATASETS[ds]
    model = make_model(model_name, **MODEL_KW.get(model_name, {}))
    budget = paper_budget(spec, g)
    s = make_sampler(sampler_name, g, model, np.random.default_rng(3), budget)
    try:
        with Timer() as ti:
            s.prepare()
    except MemoryBudgetExceeded:
        return "*", "*", None
    with Timer() as tw:
        walks = generate_walks(
            spark, g, model, num_walks=num_walks, walk_length=walk_length,
            prepared=s, seed=3,
        ).persist(StorageLevel.MEMORY_AND_DISK)
        count_walk_tokens(walks)
    return ti.s, tw.s, walks


def run_learning(spark, walks, big: bool) -> float:
    with Timer() as tl:
        train_embeddings(
            walks, dim=32, window=5, max_iter=1, seed=3,
            min_count=5 if big else 0,
            num_partitions=spark.sparkContext.defaultParallelism,
        ).count()
    return tl.s


def main(spark=None):
    own = spark is None
    if own:
        from repro.bench_utils import get_or_create_spark

        spark = get_or_create_spark("table6")
        spark.sparkContext.setLogLevel("ERROR")
    walk_length = 80

    all_rows = {}
    for model_name, datasets in MODEL_DATASETS.items():
        rows = []
        for ds in datasets:
            big = ds in BIG
            num_walks = BIG_WALKS if big else 10
            g = load(ds)
            model = make_model(model_name, **MODEL_KW.get(model_name, {}))

            # --- Open-sourced version (naive reference, capped) -------
            if big:
                ref = None  # paper cells are >4h / * here; we skip.
            else:
                ref = reference_walks(
                    g, model, model.start_nodes(g),
                    num_walks=num_walks, walk_length=walk_length,
                    seed=3, time_limit_s=REF_CAP_S,
                )
            if ref is None:
                open_ti, open_tw = "skip", "skip"
            elif ref.timed_out:
                open_ti = ref.init_s if ref.init_s is not None else f">{REF_CAP_S:.0f}"
                open_tw = f">{REF_CAP_S:.0f}"
            else:
                open_ti, open_tw = ref.init_s, ref.walk_s

            # --- UniNet (Orig) / UniNet (M-H) -------------------------
            orig_name = ORIG_SAMPLER.get(model_name, "direct")
            orig_ti, orig_tw, orig_walks = run_impl(
                spark, model_name, ds, orig_name, num_walks, walk_length
            )
            mh_ti, mh_tw, mh_walks = run_impl(
                spark, model_name, ds, "mh", num_walks, walk_length
            )
            # --- shared learning phase --------------------------------
            tl = run_learning(spark, mh_walks, big) if mh_walks is not None else None
            for walks in (orig_walks, mh_walks):
                if walks is not None:
                    walks.unpersist()

            def total(ti, tw):
                if isinstance(ti, str) or isinstance(tw, str) or tl is None:
                    return "*" if "*" in (ti, tw) else (
                        "skip" if "skip" in (ti, tw) else f">{REF_CAP_S:.0f}"
                    )
                return ti + tw + tl

            row = [
                ds,
                _fmt(open_ti), _fmt(open_tw), _fmt(tl), _fmt(total(open_ti, open_tw)),
                _fmt(orig_ti), _fmt(orig_tw), _fmt(tl), _fmt(total(orig_ti, orig_tw)),
                _fmt(mh_ti), _fmt(mh_tw), _fmt(tl), _fmt(total(mh_ti, mh_tw)),
            ]
            ot, gt, mt = (total(open_ti, open_tw), total(orig_ti, orig_tw),
                          total(mh_ti, mh_tw))
            for a, b, lab in [(gt, mt, "orig/mh"), (ot, mt, "open/mh")]:
                row.append(
                    f"{a / b:.1f}X" if isinstance(a, float) and isinstance(b, float)
                    else "-"
                )
            ppr = PAPER_TT.get((model_name, ds))
            row.append("/".join(_fmt(x) for x in ppr) if ppr else "-")
            rows.append(row)
            print("  done:", model_name, ds, flush=True)
        all_rows[model_name] = rows
        print_table(
            f"Table VI — {model_name}: Open-sourced | UniNet(Orig) | UniNet(M-H)",
            ["dataset",
             "O_Ti", "O_Tw", "O_Tl", "O_Tt",
             "G_Ti", "G_Tw", "G_Tl", "G_Tt",
             "M_Ti", "M_Tw", "M_Tl", "M_Tt",
             "orig/mh", "open/mh", "paper_Tt(O/G/M)"],
            rows,
        )
    if own:
        spark.stop()
    return all_rows


if __name__ == "__main__":
    main()
