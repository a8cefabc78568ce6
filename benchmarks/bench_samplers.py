"""Micro-benchmark: per-step sampling cost of every edge sampler.

The paper's complexity table in one benchmark: one vectorized walk
step for a large walker batch on flickr_lite under node2vec
(p=0.25, q=4). Expected ordering: alias ≈ mh < knightking <
rejection < direct (direct pays O(d) per step). The table samplers'
``prepare()`` (Table VI's ``T_i``) is timed on its own.
"""
import numpy as np
import pytest

from repro.core.abstraction import WalkerBatch
from repro.datasets import load
from repro.models import make_model
from repro.samplers import make_sampler

SAMPLERS = ["mh", "mh-random", "mh-burn", "alias", "direct", "rejection",
            "knightking", "memory_aware"]


def _batch(g, rng, k=20000):
    # Walkers mid-walk: random (prev -> cur) edges as states.
    e = rng.integers(0, g.m, k)
    return WalkerBatch(
        cur=g.indices[e].astype(np.int64),
        prev=g.src[e],
        prev_eidx=e.astype(np.int64),
    )


@pytest.mark.parametrize("sname", SAMPLERS)
def test_sampler_step_cost(benchmark, sname):
    g = load("flickr_lite")
    model = make_model("node2vec", p=0.25, q=4.0)
    rng = np.random.default_rng(0)
    s = make_sampler(sname, g, model, rng)
    s.prepare()
    wk = _batch(g, rng)
    s.sample(wk)  # a process's first table draw sums the tables: untimed

    benchmark.pedantic(lambda: s.sample(wk), rounds=5, iterations=1,
                       warmup_rounds=1)


@pytest.mark.parametrize("init", ["random", "weight", "burn"])
def test_mh_initialization_cost(benchmark, init):
    """Init-strategy overhead (§III-C): ``prepare()`` of a fresh M-H
    sampler, which initializes every state."""
    g = load("flickr_lite")
    model = make_model("node2vec", p=0.25, q=4.0)

    def run():
        make_sampler(f"mh-{init}", g, model, np.random.default_rng(1)).prepare()

    benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=0)


@pytest.mark.parametrize("sname", ["alias", "memory_aware"])
def test_table_prepare_cost(benchmark, sname):
    """``T_i`` of the table samplers: building every state's table
    (alias) or the budgeted hot states' tables (memory-aware)."""
    g = load("flickr_lite")
    model = make_model("node2vec", p=0.25, q=4.0)

    def run():
        make_sampler(sname, g, model, np.random.default_rng(0)).prepare()

    benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=1)
