"""Spark-SQL graph cleaning and Table V statistics.

The dataflow half of the graph substrate. ``datasets.load`` builds every
:class:`~repro.graph.csr.CSRGraph` with numpy (``csr.from_edges``);
here :func:`edges_df` turns a CSR back into a Spark edge table, and
Catalyst aggregations clean raw edges (self-loop removal, duplicate
collapse, symmetrization) and summarize them for Table V, all checked
against the DuckDB oracle in tests.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession, functions as F

from repro.graph import csr


def edges_df(spark: SparkSession, g: csr.CSRGraph) -> DataFrame:
    """The CSR back to a Spark edge table ``(src, dst, weight)``."""
    return spark.createDataFrame(
        pd.DataFrame(
            {"src": g.src, "dst": g.indices.astype(np.int64), "weight": g.weights}
        )
    )


def clean_edges(edges: DataFrame) -> DataFrame:
    """Symmetrize + dedupe an edge DataFrame with Spark SQL.

    Output columns ``(src, dst, weight)``: no self loops, both
    directions present, one row per directed pair (first weight wins
    via ``min`` for determinism).
    """
    e = edges.select(
        F.col("src").cast("long"),
        F.col("dst").cast("long"),
        F.coalesce(F.col("weight"), F.lit(1.0)).cast("double").alias("weight"),
    ).where(F.col("src") != F.col("dst"))
    both = e.unionByName(
        e.select(F.col("dst").alias("src"), F.col("src").alias("dst"), "weight")
    )
    return both.groupBy("src", "dst").agg(F.min("weight").alias("weight"))


def degree_stats(edges: DataFrame) -> DataFrame:
    """Per-node out-degree and weight sum of a cleaned edge DataFrame."""
    return edges.groupBy(F.col("src").alias("node")).agg(
        F.count("*").alias("degree"), F.sum("weight").alias("weight_sum")
    )


def summary_stats(edges: DataFrame) -> DataFrame:
    """One-row graph summary (|V|, directed |E|, mean degree) — the
    Spark-SQL side of Table V."""
    deg = degree_stats(edges)
    return deg.agg(
        F.count("*").alias("n_nodes"),
        F.sum("degree").alias("n_directed_edges"),
        F.round(F.avg("degree"), 2).alias("mean_degree"),
    )
