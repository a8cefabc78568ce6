"""Distributed walk engine (mapInArrow over broadcast graph)."""
import numpy as np
import pyarrow as pa
import pytest
from pyspark.sql import functions as F
from pyspark.sql.pandas.types import to_arrow_schema

from repro.core.theory import exact_transition, tv_distance
from repro.models import make_model
from repro.oracle import assert_equivalent
from repro.walks.engine import (
    BLOCK,
    WALKS_SCHEMA,
    count_walk_tokens,
    generate_walks,
    walker_blocks,
    walker_frame,
    walks_batch,
)
from repro.walks.kernel import walks_to_lists

from tests.util import small_graph


@pytest.fixture(scope="module")
def g():
    return small_graph()


def physical_plan(df) -> str:
    return df._jdf.queryExecution().executedPlan().toString()


def test_walker_frame_size(spark):
    """Contiguous id ranges, one per partition, and no shuffle."""
    df = walker_frame(spark, np.arange(20), 3, 4)
    assert df.count() == 60
    assert df.rdd.getNumPartitions() == 4
    assert "Exchange" not in physical_plan(df)
    parts = df.rdd.glom().map(lambda rows: [r.id for r in rows]).collect()
    assert [i for p in parts for i in p] == list(range(60))


def test_engine_plan_has_no_shuffle(spark, g):
    walks = generate_walks(
        spark, g, make_model("deepwalk"), num_walks=1, walk_length=3, seed=0,
        num_partitions=3,
    )
    plan = physical_plan(walks)
    assert "MapInArrow" in plan and "Exchange" not in plan


def id_batches(lo, hi, cuts):
    """Arrow batches of the ids ``lo..hi-1``, split at ``cuts``."""
    edges = [lo, *cuts, hi]
    return [
        pa.record_batch([pa.array(np.arange(a, b, dtype=np.int64))], names=["id"])
        for a, b in zip(edges[:-1], edges[1:])
    ]


@pytest.mark.parametrize(
    "cuts",
    [[], [100 * i for i in range(1, 250)], [1, 9_999, 10_000, 10_000, 10_001, 24_999]],
    ids=["one_batch", "batches_of_100", "ragged_with_empty"],
)
def test_walker_blocks_ignore_arrow_batching(cuts):
    """Blocks start at the partition's first id and hold BLOCK ids,
    wherever the Arrow batches were cut (empty batches included)."""
    lo, hi = 7, 25_007
    blocks = list(walker_blocks(id_batches(lo, hi, [lo + c for c in cuts])))
    assert [b.tolist() for b in blocks] == [
        list(range(a, min(a + BLOCK, hi))) for a in range(lo, hi, BLOCK)
    ]


def test_walker_blocks_empty_partition_yields_nothing():
    assert list(walker_blocks([])) == []
    assert list(walker_blocks(id_batches(5, 5, []))) == []


def test_walks_batch_matches_list_form(spark):
    """The Arrow encoder strips the -1 padding exactly as the list form
    does (early stops and single-token walks included) and produces the
    engine's declared schema."""
    walks = np.array(
        [[1, 2, 3, -1], [4, -1, -1, -1], [5, 6, 7, 8], [9, -1, -1, -1]],
        dtype=np.int64,
    )
    ids = np.arange(10, 14, dtype=np.int64)
    rb = walks_batch(ids, walks[:, 0].copy(), walks)
    assert rb.column(2).to_pylist() == walks_to_lists(walks)
    assert rb.column(0).to_pylist() == ids.tolist()
    assert rb.column(1).to_pylist() == [1, 4, 5, 9]
    declared = to_arrow_schema(spark.createDataFrame([], WALKS_SCHEMA).schema)
    assert rb.schema.names == declared.names
    assert rb.schema.types == declared.types


def test_engine_more_partitions_than_walkers(spark):
    """Empty partitions yield no rows and no error."""
    from repro.graph.csr import from_edges

    g5 = from_edges(np.array([0, 1, 2, 3]), np.array([1, 2, 3, 4]), n=5)
    rows = generate_walks(
        spark, g5, make_model("deepwalk"), num_walks=1, walk_length=4,
        sampler="mh", seed=0, num_partitions=8,
    ).collect()
    assert sorted(r["walk_id"] for r in rows) == list(range(5))
    assert sorted(r["start"] for r in rows) == list(range(5))


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


@pytest.mark.parametrize(
    "kw", [dict(num_walks=0), dict(num_walks=-1), dict(walk_length=-3)]
)
def test_engine_invalid_walk_spec_raises_before_prepare(spark, g, monkeypatch, kw):
    """An empty or negative walk spec fails on the driver, before a
    sampler is built and prepared or anything is broadcast."""
    import repro.walks.engine as engine

    def unreachable(*args, **kwargs):
        raise AssertionError("reached past the argument checks")

    monkeypatch.setattr(engine, "make_sampler", unreachable)
    monkeypatch.setattr(spark.sparkContext, "broadcast", unreachable)
    with pytest.raises(ValueError, match="num_walks|walk_length"):
        generate_walks(spark, g, make_model("deepwalk"), **kw)


def test_count_walk_tokens_empty_corpus(spark, g):
    walks = generate_walks(
        spark, g, make_model("deepwalk"), num_walks=1, walk_length=0, seed=0
    )
    assert count_walk_tokens(walks.where(F.col("walk_id") < 0)) == 0
    # walk_length 0: each walk is its start node alone.
    assert count_walk_tokens(walks) == g.n


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
