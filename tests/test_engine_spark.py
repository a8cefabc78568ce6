"""Distributed walk engine (mapInPandas over broadcast graph)."""
import numpy as np
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.core.theory import exact_transition, tv_distance
from repro.models import make_model
from repro.oracle import assert_equivalent
from repro.walks.engine import count_walk_tokens, generate_walks, walker_frame

from tests.util import small_graph


@pytest.fixture(scope="module")
def g():
    return small_graph()


def test_walker_frame_size(spark):
    df = walker_frame(spark, np.arange(20), 3, 4)
    assert df.count() == 60
    assert df.rdd.getNumPartitions() == 4


@pytest.mark.parametrize("sampler", ["mh", "mh-random", "direct"])
def test_engine_row_count_and_starts(spark, g, sampler):
    model = make_model("deepwalk")
    walks = generate_walks(
        spark, g, model, num_walks=2, walk_length=10, sampler=sampler, seed=1
    ).cache()
    n_rows = walks.count()
    assert n_rows == 2 * g.n
    # Every node appears as a start exactly num_walks times.
    per_start = walks.groupBy("start").count().toPandas()
    assert (per_start["count"] == 2).all() and len(per_start) == g.n
    walks.unpersist()


def test_engine_walks_are_valid_edges(spark, g):
    model = make_model("node2vec", p=0.25, q=4.0)
    rows = generate_walks(
        spark, g, model, num_walks=1, walk_length=15, sampler="mh", seed=2
    ).collect()
    for r in rows:
        wlk = r["walk"]
        assert wlk[0] == r["start"]
        a = np.array(wlk[:-1])
        b = np.array(wlk[1:])
        assert g.has_edge(a, b).all()


def test_engine_token_count(spark, g):
    model = make_model("deepwalk")
    walks = generate_walks(
        spark, g, model, num_walks=1, walk_length=12, sampler="mh", seed=0
    )
    # No dead ends on the symmetrized Chung-Lu graph except isolated
    # starts (which emit a single-token walk).
    iso = int((g.degrees == 0).sum())
    assert count_walk_tokens(walks) == (g.n - iso) * 13 + iso


def test_engine_partitions_do_not_share_rng(spark, g):
    """Different partitions must produce different randomness: across
    many walks from one node, next-hops should cover many neighbors."""
    model = make_model("deepwalk")
    rows = generate_walks(
        spark, g, model, num_walks=16, walk_length=1, sampler="mh-random",
        seed=3, num_partitions=8,
    ).collect()
    v = int(np.argmax(g.degrees))
    hops = {r["walk"][1] for r in rows if r["start"] == v and len(r["walk"]) > 1}
    assert len(hops) > 3


def transition_counts(walks):
    """Spark SQL: corpus -> per-(cur, nxt) transition counts."""
    pairs = walks.select(
        F.explode(
            F.arrays_zip(
                F.slice(F.col("walk"), 1, F.size("walk") - 1).alias("cur"),
                F.slice(F.col("walk"), 2, F.size("walk") - 1).alias("nxt"),
            )
        ).alias("p")
    ).select(F.col("p.cur").alias("cur"), F.col("p.nxt").alias("nxt"))
    return pairs.groupBy("cur", "nxt").agg(F.count("*").alias("cnt"))


def test_engine_transition_distribution_and_oracle(spark, g):
    """Aggregate all corpus transitions out of the max-degree node and
    compare with the exact deepwalk distribution (the chain visits the
    node thousands of times across walks, so it is converged). The
    Spark aggregation itself is oracle-checked against DuckDB on the
    exploded pair table."""
    model = make_model("deepwalk")
    v = int(np.argmax(g.degrees))
    walks = generate_walks(
        spark, g, model, num_walks=12, walk_length=40, sampler="mh-random", seed=4
    ).cache()
    trans = transition_counts(walks).cache()
    # Oracle: same aggregation in DuckDB over the collected pair table.
    pairs_pdf = walks.select(
        F.posexplode(F.col("walk")).alias("pos", "node"), F.col("walk_id")
    ).toPandas()
    assert_equivalent(
        trans,
        """
        SELECT a.node AS cur, b.node AS nxt, count(*) AS cnt
        FROM pairs a JOIN pairs b
          ON a.walk_id = b.walk_id AND b.pos = a.pos + 1
        GROUP BY a.node, b.node
        """,
        pairs=pairs_pdf,
    )
    pdf = trans.where(F.col("cur") == v).toPandas()
    counts = np.zeros(int(g.degrees[v]))
    nb = g.neighbors(v)
    for _, row in pdf.iterrows():
        counts[int(np.where(nb == row["nxt"])[0][0])] = row["cnt"]
    assert counts.sum() > 2000  # the hub is visited often
    pi = exact_transition(g, model, v)
    assert tv_distance(pi, counts / counts.sum()) < 0.12
    walks.unpersist()
    trans.unpersist()


def test_engine_metapath_start_filter(spark, g):
    model = make_model("metapath2vec", metapath=[1, 0, 1])
    rows = generate_walks(
        spark, g, model, num_walks=1, walk_length=6, sampler="mh", seed=5
    ).collect()
    starts = {r["walk"][0] for r in rows}
    assert all(g.node_type[s] == 1 for s in starts)


def test_engine_no_start_nodes_raises(spark):
    from repro.graph.csr import from_edges

    g2 = from_edges(np.array([0]), np.array([1]), n=2)  # all type 0
    model = make_model("metapath2vec", metapath=[2, 0, 2])
    with pytest.raises(ValueError):
        generate_walks(spark, g2, model)


def test_engine_metapath_missing_type_raises_before_any_job(spark):
    """A metapath naming a type the graph lacks fails on the driver,
    before generate_walks starts a Spark job."""
    sc = spark.sparkContext
    group = "metapath-missing-type"
    sc.setJobGroup(group, "generate_walks must not start a job")
    try:
        with pytest.raises(ValueError, match="missing"):
            generate_walks(spark, small_graph(n_types=1), make_model("metapath2vec"))
        assert list(sc.statusTracker().getJobIdsForGroup(group)) == []
    finally:
        sc.setLocalProperty("spark.jobGroup.id", None)
        sc.setLocalProperty("spark.job.description", None)


def test_engine_prepared_sampler_reused(spark, g):
    """Passing a driver-prepared sampler (Table VI's T_i split) works
    and produces the same corpus shape."""
    from repro.samplers import make_sampler

    model = make_model("node2vec", p=0.5, q=2.0)
    s = make_sampler("alias", g, model, np.random.default_rng(0))
    s.prepare()
    walks = generate_walks(
        spark, g, model, num_walks=1, walk_length=5, prepared=s, seed=6
    )
    assert walks.count() == g.n


@pytest.mark.parametrize(
    "sampler",
    ["mh", "direct", "alias", "rejection", "knightking", "memory_aware"],
)
def test_engine_corpus_repeats_across_actions(spark, g, sampler):
    """A corpus is a pure function of its inputs for every sampler
    family: a second action over the same lazy corpus, served by the
    same cached broadcast in reused Python workers, reproduces every
    walk (the M-H ``LAST_x`` store is task-local; table and nested
    samplers share only read-only state)."""
    model = make_model("node2vec", p=0.25, q=4.0)
    walks = generate_walks(
        spark, g, model, num_walks=4, walk_length=20, sampler=sampler,
        seed=7, num_partitions=8,
    )
    first, second = (
        {r["walk_id"]: r["walk"] for r in walks.collect()} for _ in range(2)
    )
    assert len(first) == 4 * g.n
    assert first == second
