"""Spark-SQL graph cleaning and statistics vs the DuckDB oracle and
the numpy CSR."""
import pandas as pd
import pytest
from pyspark.sql import functions as F

from repro.graph.builder import clean_edges, degree_stats, edges_df, summary_stats
from repro.oracle import assert_equivalent
from repro.synth_data import chung_lu_edges

from tests.util import small_graph

CLEAN_SQL = """
    WITH base AS (
        SELECT src, dst, coalesce(weight, 1.0) AS weight
        FROM raw WHERE src <> dst
    ), sym AS (
        SELECT src, dst, weight FROM base
        UNION ALL
        SELECT dst AS src, src AS dst, weight FROM base
    )
    SELECT src, dst, min(weight) AS weight FROM sym GROUP BY src, dst
"""


@pytest.fixture(scope="module")
def raw_pdf():
    src, dst, w = chung_lu_edges(n=150, avg_degree=8, seed=7, weighted=True)
    return pd.DataFrame({"src": src, "dst": dst, "weight": w})


@pytest.fixture(scope="module")
def raw_df(spark, raw_pdf):
    return spark.createDataFrame(raw_pdf)


def test_clean_edges_oracle(spark, raw_df, raw_pdf):
    assert_equivalent(clean_edges(raw_df), CLEAN_SQL, raw=raw_pdf)


def test_degree_stats_oracle(spark, raw_df, raw_pdf):
    got = degree_stats(clean_edges(raw_df))
    sql = f"""
        WITH cleaned AS ({CLEAN_SQL})
        SELECT src AS node, count(*) AS degree, sum(weight) AS weight_sum
        FROM cleaned GROUP BY src
    """
    assert_equivalent(got, sql, raw=raw_pdf)


def test_summary_stats_oracle(spark, raw_df, raw_pdf):
    got = summary_stats(clean_edges(raw_df))
    sql = f"""
        WITH cleaned AS ({CLEAN_SQL}),
        deg AS (SELECT src, count(*) AS d FROM cleaned GROUP BY src)
        SELECT count(*) AS n_nodes, sum(d) AS n_directed_edges,
               round(avg(d), 2) AS mean_degree
        FROM deg
    """
    assert_equivalent(got, sql, raw=raw_pdf)


def test_clean_edges_no_self_loops_and_symmetric(spark, raw_df):
    cleaned = clean_edges(raw_df)
    assert cleaned.where(F.col("src") == F.col("dst")).count() == 0
    fwd = cleaned.select("src", "dst")
    rev = cleaned.select(F.col("dst").alias("src"), F.col("src").alias("dst"))
    assert fwd.exceptAll(rev).count() == 0


def test_clean_edges_null_weight_defaults_one(spark):
    pdf = pd.DataFrame({"src": [0, 1], "dst": [1, 2], "weight": [None, 2.0]})
    out = clean_edges(spark.createDataFrame(pdf)).toPandas()
    w01 = out[(out.src == 0) & (out.dst == 1)]["weight"].iloc[0]
    assert w01 == 1.0


def test_edges_df_roundtrip(spark):
    g = small_graph(n=80, avg_degree=8, seed=5)
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
