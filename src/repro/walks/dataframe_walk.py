"""Pure-Catalyst first-order random walk engine (cross-check).

A fully DataFrame-based deepwalk generator: each step joins the walker
frontier to the edge table and picks the next edge by an
*exponential race* — per candidate edge draw ``key = -ln(U)/w`` and
keep the per-walker minimum, which selects each edge with probability
``w / Σw`` (the inverse-CDF-free way to do weighted choice in Catalyst,
via one join + one window). Distributionally identical to the kernel
engine's first-order sampling; tests compare their transition
frequencies.

This engine exists as an independent distributed-dataflow realization
of walk generation for validation; at walk length 80 the iterative
plan would be deep, so production walks use the ``mapInPandas`` kernel
engine (DESIGN.md §2) while this one is exercised at shorter lengths.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession, Window, functions as F

from repro.graph.builder import edges_df
from repro.graph.csr import CSRGraph


def first_order_walks(
    spark: SparkSession,
    g: CSRGraph,
    starts: np.ndarray,
    *,
    num_walks: int = 1,
    walk_length: int = 5,
    seed: int = 0,
    checkpoint_every: int = 4,
) -> DataFrame:
    """Deepwalk walks as ``(walk_id long, walk array<long>)`` computed
    entirely in Spark SQL. Walkers at isolated nodes are dropped."""
    e = edges_df(spark, g)
    starts = np.asarray(starts, dtype=np.int64)
    start_pdf = pd.DataFrame(
        {
            "walk_id": np.arange(starts.shape[0] * num_walks, dtype=np.int64),
            "cur": np.tile(starts, num_walks),
        }
    )
    w = spark.createDataFrame(start_pdf).withColumn(
        "walk", F.array(F.col("cur"))
    )
    order = Window.partitionBy("walk_id").orderBy("key")
    for t in range(walk_length):
        j = w.join(e, w["cur"] == e["src"], "inner")
        j = j.withColumn("key", -F.log(F.rand(seed * 1_000_003 + t)) / F.col("weight"))
        step = (
            j.withColumn("rn", F.row_number().over(order))
            .where(F.col("rn") == 1)
            .select(
                "walk_id",
                F.col("dst").alias("cur"),
                F.concat("walk", F.array(F.col("dst"))).alias("walk"),
            )
        )
        # Truncate the growing lineage so 2k-step plans stay tractable.
        w = step.localCheckpoint(eager=False) if (t + 1) % checkpoint_every == 0 else step
    return w.select("walk_id", "walk")
