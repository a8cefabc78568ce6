"""Benchmark for Table VI — end-to-end phases per implementation.

Representative cells (blogcatalog_lite): walk-generation cost of the
three implementations for deepwalk and node2vec, plus the shared
learning phase; and, per table sampler, the broadcast share of
UniNet (Orig)'s ``T_w`` on flickr_lite. ``jobs/table6_end_to_end.py``
prints the full table across all models and datasets.
"""
import numpy as np
import pytest

from repro.baselines.reference import reference_walks
from repro.core.abstraction import WalkerBatch
from repro.datasets import DATASETS, load
from repro.embedding.word2vec import train_embeddings
from repro.bench_utils import paper_budget
from repro.models import make_model
from repro.samplers import make_sampler
from repro.walks.engine import count_walk_tokens, generate_walks

DS = "blogcatalog_lite"
CASES = [
    ("deepwalk", "reference"),
    ("deepwalk", "direct"),
    ("deepwalk", "mh"),
    ("node2vec", "reference"),
    ("node2vec", "alias"),
    ("node2vec", "mh"),
]


@pytest.mark.parametrize("mname,impl", CASES, ids=[f"{m}-{i}" for m, i in CASES])
def test_table6_walk_phase(benchmark, spark, mname, impl):
    g = load(DS)
    model = make_model(mname, p=0.25, q=4.0) if mname == "node2vec" else make_model(mname)

    if impl == "reference":
        def run():
            reference_walks(g, model, model.start_nodes(g),
                            num_walks=2, walk_length=80, seed=0)
    else:
        def run():
            budget = paper_budget(DATASETS[DS], g)
            s = make_sampler(impl, g, model, np.random.default_rng(0), budget)
            s.prepare()
            walks = generate_walks(spark, g, model, num_walks=2,
                                   walk_length=80, prepared=s, seed=0)
            count_walk_tokens(walks)

    benchmark.pedantic(run, rounds=2, iterations=1, warmup_rounds=0)


def test_table6_learning_phase(benchmark, spark):
    g = load(DS)
    walks = generate_walks(
        spark, g, make_model("deepwalk"), num_walks=2, walk_length=80, seed=0
    ).cache()
    count_walk_tokens(walks)

    benchmark.pedantic(
        lambda: train_embeddings(walks, dim=32, seed=0).count(),
        rounds=2, iterations=1, warmup_rounds=0,
    )
    walks.unpersist()


@pytest.mark.parametrize("sname", ["alias", "memory_aware"])
def test_prepared_sampler_broadcast(benchmark, spark, sname):
    """``sc.broadcast`` of a freshly prepared flickr_lite node2vec
    sampler, then one task per core that reads it and draws once for
    10 000 walkers (a worker's first table draw sums the tables), then
    the broadcast is destroyed: the per-table view of the broadcast
    share of ``T_w``."""
    g = load("flickr_lite")
    model = make_model("node2vec", p=0.25, q=4.0)
    sc = spark.sparkContext
    cores = sc.defaultParallelism

    def prepared():
        s = make_sampler(sname, g, model, np.random.default_rng(0))
        s.prepare()
        return (s,), {}

    def run(s):
        bc = sc.broadcast(s)

        def read(i, _):
            samp = bc.value.task_copy()
            sg = samp.g
            e = np.random.default_rng(i).integers(0, sg.m, 10_000)
            wk = WalkerBatch(cur=sg.indices[e].astype(np.int64), prev=sg.src[e], prev_eidx=e)
            yield int((samp.sample(wk) >= 0).sum())

        try:
            drawn = sc.parallelize(range(cores), cores).mapPartitionsWithIndex(read).collect()
        finally:
            bc.destroy()
        assert drawn == [10_000] * cores

    benchmark.pedantic(run, setup=prepared, rounds=3, iterations=1, warmup_rounds=1)
