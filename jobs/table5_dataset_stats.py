"""Table V — dataset statistics (paper vs. synthetic stand-ins).

Prints, for every stand-in in the registry, the paper's |V| / |E| /
mean degree / #types next to the generated graph's statistics. The
graph-side numbers are computed with Spark SQL (`summary_stats`,
oracle-checked in tests) over the cleaned edge DataFrame.

Run: ``python jobs/table5_dataset_stats.py`` (or spark-submit).
"""
from __future__ import annotations

from repro.bench_utils import get_or_create_spark, print_table
from repro.datasets import DATASETS
from repro.graph.builder import clean_edges, edges_df, summary_stats


def build_rows(spark):
    rows = []
    for spec in DATASETS.values():
        g = spec.build()
        stats = summary_stats(clean_edges(edges_df(spark, g))).collect()[0]
        pv, pe, pdeg, pt = spec.paper_stats
        rows.append(
            [
                spec.name,
                spec.paper_name,
                f"{pv:,.0f}",
                f"{pe:,.0f}",
                f"{pdeg:.2f}",
                pt,
                f"{stats['n_nodes']:,d}",
                f"{stats['n_directed_edges'] // 2:,d}",
                f"{stats['mean_degree']:.2f}",
                g.n_types,
            ]
        )
    return rows


def main():
    spark = get_or_create_spark("table5")
    spark.sparkContext.setLogLevel("ERROR")
    rows = build_rows(spark)
    print_table(
        "Table V — dataset statistics: paper dataset vs synthetic stand-in",
        ["stand-in", "paper", "|V|_p", "|E|_p", "deg_p", "T_p",
         "|V|_ours", "|E|_ours", "deg_ours", "T_ours"],
        rows,
    )
    spark.stop()


if __name__ == "__main__":
    main()
