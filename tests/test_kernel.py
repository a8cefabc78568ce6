"""Walk kernel (Algorithm 2): validity, termination, determinism."""
import dataclasses

import numpy as np
import pytest

from repro.graph.csr import from_edges
from repro.models import make_model
from repro.samplers import SAMPLER_NAMES, StaticSampler, make_sampler
from repro.walks.kernel import simulate_walks, walk_lengths, walks_to_lists

from tests.util import brute_edge_index, small_graph

MODELS = [
    ("deepwalk", {}),
    ("node2vec", dict(p=0.25, q=4.0)),
    ("metapath2vec", {}),
    ("edge2vec", {}),
    ("fairwalk", {}),
]


@pytest.fixture(scope="module")
def g():
    return small_graph()


@pytest.mark.parametrize("sname", SAMPLER_NAMES)
def test_metapath_missing_type_raises_value_error(sname):
    """The default metapath [0, 1, 0] on a one-type graph: every sampler
    fails with a ValueError before a walk indexes ``type_count()`` by the
    missing type 1 (memory-aware already at construction, since
    metapath2vec is first-order)."""
    g1 = small_graph(n_types=1)
    model = make_model("metapath2vec")
    with pytest.raises(ValueError):
        s = make_sampler(sname, g1, model, np.random.default_rng(0))
        s.prepare()
        simulate_walks(g1, model, np.arange(10), 5, s, s.rng)


def _assert_valid(g, walks):
    lens = walk_lengths(walks)
    for row, ln in zip(walks, lens):
        for a, b in zip(row[: ln - 1], row[1:ln]):
            assert g.has_edge(np.array([a]), np.array([b]))[0]
        assert (row[ln:] == -1).all()


@pytest.mark.parametrize("sname", SAMPLER_NAMES)
@pytest.mark.parametrize("mname,kw", MODELS)
def test_walks_traverse_real_edges(g, mname, kw, sname):
    model = make_model(mname, **kw)
    if sname == "memory_aware" and model.order != 2:
        pytest.skip("memory-aware targets second-order models")
    s = make_sampler(sname, g, model, np.random.default_rng(5))
    s.prepare()
    starts = model.start_nodes(g)[:40]
    walks = simulate_walks(g, model, starts, 15, s, s.rng)
    assert walks.shape == (starts.shape[0], 16)
    assert (walks[:, 0] == starts).all()
    _assert_valid(g, walks)


def test_metapath_walks_follow_type_pattern(g):
    model = make_model("metapath2vec", metapath=[0, 1, 0])
    s = make_sampler("mh", g, model, np.random.default_rng(1))
    s.prepare()
    starts = model.start_nodes(g)[:50]
    walks = simulate_walks(g, model, starts, 12, s, s.rng)
    lens = walk_lengths(walks)
    cycle = [0, 1]
    for row, ln in zip(walks, lens):
        for pos in range(ln):
            assert g.node_type[row[pos]] == cycle[pos % 2]


def test_isolated_start_terminates_immediately():
    g = from_edges(np.array([0, 1]), np.array([1, 2]), n=5)  # 3,4 isolated
    model = make_model("deepwalk")
    s = make_sampler("mh", g, model, np.random.default_rng(0))
    s.prepare()
    walks = simulate_walks(g, model, np.array([3, 0]), 5, s, s.rng)
    assert walk_lengths(walks).tolist() == [1, 6]


def test_walk_lengths_and_lists():
    walks = np.array([[1, 2, 3, -1], [4, -1, -1, -1], [5, 6, 7, 8]])
    assert walk_lengths(walks).tolist() == [3, 1, 4]
    assert walks_to_lists(walks) == [[1, 2, 3], [4], [5, 6, 7, 8]]


def test_kernel_deterministic_under_seed(g):
    model = make_model("node2vec", p=0.5, q=2.0)
    outs = []
    for _ in range(2):
        s = make_sampler("mh", g, model, np.random.default_rng(77))
        s.prepare()
        outs.append(simulate_walks(g, model, np.arange(30), 20, s, s.rng))
    assert (outs[0] == outs[1]).all()


def test_kernel_different_seeds_differ(g):
    model = make_model("deepwalk")
    outs = []
    for seed in [1, 2]:
        s = make_sampler("mh", g, model, np.random.default_rng(seed))
        s.prepare()
        outs.append(simulate_walks(g, model, np.arange(30), 20, s, s.rng))
    assert not (outs[0] == outs[1]).all()


def test_second_order_first_step_is_static(g):
    """The first step of second-order models follows the static-weight
    distribution (no previous edge exists yet)."""
    from repro.core.theory import tv_distance

    model = make_model("node2vec", p=0.01, q=100.0)  # extreme bias
    v = int(np.argmax(g.degrees))
    s = make_sampler("mh", g, model, np.random.default_rng(0))
    s.prepare()
    counts = np.zeros(int(g.degrees[v]))
    starts = np.full(3000, v, dtype=np.int64)
    walks = simulate_walks(g, model, starts, 1, s, s.rng)
    for row in walks:
        slot = int(np.where(g.neighbors(v) == row[1])[0][0])
        counts[slot] += 1
    w = g.neighbor_weights(v)
    assert tv_distance(w / w.sum(), counts / counts.sum()) < 0.08


def test_long_walk_visits_many_nodes(g):
    model = make_model("deepwalk")
    s = make_sampler("mh", g, model, np.random.default_rng(0))
    s.prepare()
    walks = simulate_walks(g, model, np.arange(10), 80, s, s.rng)
    assert len(np.unique(walks[walks >= 0])) > 30


@pytest.mark.parametrize("sname", ["mh-weight", "mh-random", "alias", "knightking"])
@pytest.mark.parametrize("mname", ["node2vec", "edge2vec", "fairwalk"])
def test_walks_match_bruteforce_edge_index(g, monkeypatch, mname, sname):
    """The sorted batch ``edge_index`` and ``has_edge``'s marker path
    behind node2vec's α change no walk: a fixed seed gives the same
    corpus as a loop lookup."""
    from repro.graph.csr import CSRGraph

    model = make_model(mname, p=0.25, q=4.0)
    starts = model.start_nodes(g)[:40]

    def walks():
        s = make_sampler(sname, g, model, np.random.default_rng(11))
        s.prepare()
        return simulate_walks(g, model, starts, 15, s, s.rng)

    fast = walks()
    monkeypatch.setattr(CSRGraph, "edge_index", brute_edge_index)
    monkeypatch.setattr(
        CSRGraph, "has_edge", lambda self, u, v: brute_edge_index(self, u, v) >= 0
    )
    np.testing.assert_array_equal(fast, walks())


def _parent_static_prepare(self):
    """``StaticSampler.prepare`` rebuilding the prefix on every call."""
    self.wcum = np.concatenate([[0.0], np.cumsum(self.g.weights, dtype=np.float64)])


@pytest.mark.parametrize("sname", SAMPLER_NAMES)
@pytest.mark.parametrize("mname", ["node2vec", "edge2vec", "fairwalk"])
def test_walks_match_per_batch_static_prefix(g, monkeypatch, mname, sname):
    """The graph's cached static prefix changes no walk and no stat:
    every sampler's first second-order step, and the rejection and
    KnightKing walks, equal the per-batch prefix's, over 3 batches.
    KnightKing's reject mode (edge2vec, fairwalk) is rejection sampling,
    so there the reference is ``rejection`` with the same seed."""
    model = make_model(mname, p=0.25, q=4.0)
    starts = model.start_nodes(g)[:40]

    def run(name):
        fresh = dataclasses.replace(g)
        s = make_sampler(name, fresh, model, np.random.default_rng(11))
        s.prepare()
        walks = [simulate_walks(fresh, model, starts, 15, s, s.rng) for _ in range(3)]
        return np.stack(walks), dict(s.stats)

    walks, stats = run(sname)
    monkeypatch.setattr(StaticSampler, "prepare", _parent_static_prepare)
    ref = "rejection" if sname == "knightking" and mname != "node2vec" else sname
    ref_walks, ref_stats = run(ref)
    np.testing.assert_array_equal(walks, ref_walks)
    assert stats == ref_stats


def test_static_prefix_computed_once_per_graph(g, monkeypatch):
    """Every ``StaticSampler.prepare`` on one graph object, in the
    kernel and in the rejection-family samplers, reads one cached
    prefix; a new graph object computes its own."""
    cumsum, calls = np.cumsum, []

    def spy(a, *args, **kw):
        calls.append(a)
        return cumsum(a, *args, **kw)

    monkeypatch.setattr(np, "cumsum", spy)
    model = make_model("edge2vec")
    starts = model.start_nodes(g)[:40]
    graphs = [dataclasses.replace(g, weights=g.weights.copy()) for _ in range(2)]
    for fresh in graphs:
        for sname in ("rejection", "knightking"):
            s = make_sampler(sname, fresh, model, np.random.default_rng(0))
            s.prepare()
            for _ in range(3):
                simulate_walks(fresh, model, starts, 5, s, s.rng)
            assert s.wcum is fresh.weight_prefix()
    for fresh in graphs:
        assert sum(a is fresh.weights for a in calls) == 1
        np.testing.assert_array_equal(
            fresh.weight_prefix(),
            np.concatenate([[0.0], cumsum(fresh.weights, dtype=np.float64)]),
        )
