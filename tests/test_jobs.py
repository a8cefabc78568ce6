"""Job harnesses (the table generators) — smoke at reduced scale."""
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "jobs"))

import table2_rejection_sensitivity as t2  # noqa: E402
import table5_dataset_stats as t5  # noqa: E402
import table6_end_to_end as t6  # noqa: E402
import table7_billion_edge as t7  # noqa: E402


def test_table2_run_small():
    res = t2.run(dataset="acm_lite", num_walks=1, walk_length=10)
    assert set(res) == set(t2.PQ_GRID)
    t_11, ac_11 = res[(1, 1)]
    assert t_11 > 0 and ac_11 == pytest.approx(1.0, abs=0.01)
    # Skewed parameters lower the acceptance ratio (Table II's shape).
    assert res[(0.25, 1)][1] < ac_11
    assert res[(1, 4)][1] < ac_11


def test_table2_paper_reference_recorded():
    assert t2.PAPER[(1, 1)] == (6.08, 1.00)


def test_table5_rows(spark):
    rows = t5.build_rows(spark)
    assert len(rows) == 12
    names = [r[0] for r in rows]
    assert "twitter_sim" in names and "acm_lite" in names


def test_table6_run_impl_mh(spark):
    ti, tw, walks = t6.run_impl(spark, "deepwalk", "acm_lite", "mh", 1, 10)
    assert isinstance(ti, float) and isinstance(tw, float)
    assert walks is not None
    walks.unpersist()


def test_table6_run_impl_persists_corpus(spark):
    """T_l trains on the corpus T_w counted: it is persisted, so
    Word2Vec does not regenerate the walks."""
    _, _, walks = t6.run_impl(spark, "node2vec", "blogcatalog_lite", "mh", 1, 5)
    try:
        assert walks.is_cached
        assert walks.storageLevel.useMemory and walks.storageLevel.useDisk
    finally:
        walks.unpersist()
    assert not walks.is_cached


def test_table6_run_impl_oom(spark):
    ti, tw, walks = t6.run_impl(spark, "node2vec", "twitter_sim", "alias", 1, 2)
    assert (ti, tw) == ("*", "*") and walks is None


def test_table6_learning_uses_one_partition_per_core(spark, monkeypatch):
    seen = {}

    class Vectors:
        def count(self):
            return 0

    def fake_train(walks, **kw):
        seen.update(kw)
        return Vectors()

    monkeypatch.setattr(t6, "train_embeddings", fake_train)
    t6.run_learning(spark, None, big=False)
    assert seen["num_partitions"] == spark.sparkContext.defaultParallelism


def test_table6_paper_numbers_recorded():
    assert t6.PAPER_TT[("deepwalk", "blogcatalog_lite")] == (25.14, 6.44, 1.51)
    assert t6.PAPER_TT[("node2vec", "twitter_sim")][0] == "*"


def test_table7_cell_mh(spark):
    v = t7.run_cell(spark, "acm_lite", "mh-weight", 1.0, 1.0, 1, walk_length=5)
    assert isinstance(v, float) and v > 0


def test_table7_cell_oom(spark):
    v = t7.run_cell(spark, "webuk_sim", "rejection", 1.0, 1.0, 1, walk_length=2)
    assert v == "*"


def test_table7_paper_star_pattern_recorded():
    assert t7.PAPER["twitter_sim"]["Alias"] == ["*"] * 5
    assert t7.PAPER["webuk_sim"]["KnightKing"] == ["*"] * 5
    assert isinstance(t7.PAPER["webuk_sim"]["UniNet(Weight)"][0], float)
