"""WalkerBatch and bench utilities."""
import os

import numpy as np
import pytest

from repro.bench_utils import (
    Timer,
    driver_mem,
    fmt_cell,
    paper_budget,
    print_table,
    set_spark_submit_args,
)
from repro.core.abstraction import WalkerBatch
from repro.datasets import DATASETS, load


def _wk(k=4, typed=True):
    return WalkerBatch(
        cur=np.arange(k, dtype=np.int64),
        prev=np.arange(k, dtype=np.int64) + 10,
        prev_eidx=np.arange(k, dtype=np.int64) + 20,
        req_type=np.ones(k, dtype=np.int16) if typed else None,
    )


def test_walkerbatch_len():
    assert len(_wk(7)) == 7


def test_walkerbatch_take_mask():
    wk = _wk(4)
    sub = wk.take(np.array([True, False, True, False]))
    assert len(sub) == 2
    assert sub.cur.tolist() == [0, 2]
    assert sub.prev.tolist() == [10, 12]
    assert sub.req_type.tolist() == [1, 1]


def test_walkerbatch_take_indices():
    wk = _wk(4, typed=False)
    sub = wk.take(np.array([3, 0]))
    assert sub.cur.tolist() == [3, 0]
    assert sub.req_type is None


def test_walkerbatch_repeat():
    wk = _wk(2)
    rep = wk.repeat(3)
    assert rep.cur.tolist() == [0, 0, 0, 1, 1, 1]
    assert rep.prev_eidx.tolist() == [20, 20, 20, 21, 21, 21]
    assert len(rep) == 6


def test_timer_measures():
    import time

    with Timer() as t:
        time.sleep(0.01)
    assert 0.005 < t.s < 1.0
    assert float(t) == t.s


def test_fmt_cell():
    assert fmt_cell(None).strip() == "-"
    assert fmt_cell("*").strip() == "*"
    assert fmt_cell(1.234).strip() == "1.23"


def test_print_table_renders(capsys):
    print_table("T", ["a", "b"], [[1.0, "x"], [2.5, "y"]])
    out = capsys.readouterr().out
    assert "T" in out and "1.00" in out and "y" in out


def test_paper_budget_precharges_graph():
    g = load("acm_lite")
    b = paper_budget(DATASETS["acm_lite"], g)
    assert b.ledger["graph_csr"] == 4 * g.m
    assert b.budget == pytest.approx(96e9 * g.m / DATASETS["acm_lite"].paper_edges)


def test_driver_mem_env_override_wins(monkeypatch):
    monkeypatch.setenv("SPARK_DRIVER_MEM", "3g")
    assert driver_mem() == "3g"


def test_driver_mem_derived_without_override(monkeypatch):
    monkeypatch.delenv("SPARK_DRIVER_MEM", raising=False)
    monkeypatch.delenv("_SPARK_DRIVER_MEM_SRC", raising=False)
    mem = driver_mem()
    assert mem.endswith("g") and int(mem[:-1]) >= 1
    src = os.environ["_SPARK_DRIVER_MEM_SRC"]
    assert src == "fallback" or src.startswith("cgroup:")


def test_spark_submit_args_keep_existing_values(monkeypatch):
    monkeypatch.setenv("SPARK_DRIVER_MEM", "5g")
    monkeypatch.delenv("PYSPARK_SUBMIT_ARGS", raising=False)
    set_spark_submit_args()
    args = os.environ["PYSPARK_SUBMIT_ARGS"]
    assert "--driver-memory 5g" in args and args.endswith("pyspark-shell")
    monkeypatch.setenv("PYSPARK_SUBMIT_ARGS", "--master local[1] pyspark-shell")
    set_spark_submit_args()
    assert os.environ["PYSPARK_SUBMIT_ARGS"] == "--master local[1] pyspark-shell"
