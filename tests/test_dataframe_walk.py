"""Pure-Catalyst first-order walk engine vs the kernel engine."""
import numpy as np
import pytest
from pyspark.sql import functions as F

from repro.core.theory import exact_transition, tv_distance
from repro.graph.builder import edges_df
from repro.models import make_model
from repro.oracle import assert_equivalent
from repro.walks.dataframe_walk import first_order_walks

from tests.util import small_graph


@pytest.fixture(scope="module")
def g():
    return small_graph(n=80, avg_degree=8, seed=5)


def test_edges_df_roundtrip(spark, g):
    df = edges_df(spark, g)
    assert df.count() == g.m
    # Degree per node matches the CSR (Spark aggregation vs numpy),
    # and the aggregation itself matches DuckDB.
    deg_df = df.groupBy("src").agg(F.count("*").alias("degree"))
    pdf = df.toPandas()
    assert_equivalent(
        deg_df, "SELECT src, count(*) AS degree FROM e GROUP BY src", e=pdf
    )
    got = deg_df.toPandas().set_index("src")["degree"]
    for v in range(g.n):
        if g.degrees[v]:
            assert got[v] == g.degrees[v]


def test_catalyst_walks_are_valid(spark, g):
    starts = np.arange(0, g.n, 2)
    rows = first_order_walks(
        spark, g, starts, num_walks=1, walk_length=6, seed=1
    ).collect()
    assert len(rows) == len(starts)
    for r in rows:
        wlk = r["walk"]
        assert len(wlk) == 7
        assert g.has_edge(np.array(wlk[:-1]), np.array(wlk[1:])).all()


def test_catalyst_walk_transition_matches_exact(spark, g):
    """Exponential-race weighted choice converges to the deepwalk
    transition distribution (Eq. 1) — checked at the max-degree hub."""
    model = make_model("deepwalk")
    v = int(np.argmax(g.degrees))
    walks = first_order_walks(
        spark, g, np.arange(g.n), num_walks=4, walk_length=12, seed=2
    )
    pairs = walks.select(
        F.explode(
            F.arrays_zip(
                F.slice("walk", 1, F.size("walk") - 1).alias("cur"),
                F.slice("walk", 2, F.size("walk") - 1).alias("nxt"),
            )
        ).alias("p")
    ).select("p.cur", "p.nxt")
    pdf = pairs.where(F.col("cur") == v).groupBy("nxt").count().toPandas()
    counts = np.zeros(int(g.degrees[v]))
    nb = g.neighbors(v)
    for _, row in pdf.iterrows():
        counts[int(np.where(nb == row["nxt"])[0][0])] = row["count"]
    assert counts.sum() > 200
    pi = exact_transition(g, model, v)
    # ~215 visits over ~34 slots: 0.2 TV is a ~4-sigma sanity bound.
    assert tv_distance(pi, counts / counts.sum()) < 0.2


def test_catalyst_walk_deterministic_seed(spark, g):
    starts = np.arange(10)
    a = first_order_walks(spark, g, starts, walk_length=4, seed=9).collect()
    b = first_order_walks(spark, g, starts, walk_length=4, seed=9).collect()
    assert sorted(map(tuple, (r["walk"] for r in a))) == sorted(
        map(tuple, (r["walk"] for r in b))
    )


def test_catalyst_walk_num_walks(spark, g):
    df = first_order_walks(spark, g, np.arange(5), num_walks=3, walk_length=2, seed=0)
    assert df.count() == 15
