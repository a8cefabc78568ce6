"""Spark-SQL graph cleaning → frozen CSR.

The dataflow half of the graph substrate: raw edge DataFrames are
cleaned (self-loop removal, duplicate collapse, symmetrization) and
summarized with Catalyst aggregations — all checked against the DuckDB
oracle in tests — before being frozen into the broadcastable
:class:`~repro.graph.csr.CSRGraph` used by the samplers.
"""
from __future__ import annotations

from typing import Optional

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


def build_csr(
    edges: DataFrame,
    n: Optional[int] = None,
    node_type: Optional[np.ndarray] = None,
    node_attr: Optional[np.ndarray] = None,
) -> csr.CSRGraph:
    """Clean ``edges`` with Spark SQL and freeze to a CSRGraph.

    The collect at the end is the documented dataflow→numpy boundary
    (DESIGN.md §2): the cleaned graph fits on the driver at our scale
    factors and is then broadcast read-only to executors.
    """
    pdf = (
        clean_edges(edges)
        .orderBy("src", "dst")
        .toPandas()
    )
    src = pdf["src"].to_numpy(np.int64)
    dst = pdf["dst"].to_numpy(np.int64)
    w = pdf["weight"].to_numpy(np.float64)
    if n is None:
        n = int(max(src.max(initial=-1), dst.max(initial=-1))) + 1
    # clean_edges already symmetrized/deduped; from_edges re-validates.
    return csr.from_edges(
        src, dst, w, n=n, node_type=node_type, node_attr=node_attr, symmetrize=False
    )
