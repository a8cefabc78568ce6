"""CSRGraph substrate invariants and lookups vs brute force."""
import numpy as np
import pytest

from repro.graph import csr
from repro.graph.csr import from_edges
from repro.synth_data import chung_lu_edges, node_types

from tests.util import brute_edge_index, small_graph


@pytest.fixture(scope="module")
def g():
    return small_graph()


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("n,deg", [(50, 4), (120, 10), (300, 25)])
def test_from_edges_invariants(seed, n, deg):
    src, dst, w = chung_lu_edges(n=n, avg_degree=deg, seed=seed, weighted=True)
    g = from_edges(src, dst, w, n=n)
    # Offsets monotone, cover all slots.
    assert g.indptr[0] == 0 and g.indptr[-1] == g.m
    assert (np.diff(g.indptr) >= 0).all()
    # Sorted adjacency per node, no self loops, no duplicates.
    for v in range(0, n, max(1, n // 17)):
        nb = g.neighbors(v)
        assert (np.diff(nb) > 0).all()
        assert v not in nb
    # Symmetry: (u,v) present iff (v,u) present.
    assert g.has_edge(g.indices.astype(np.int64), g.src).all()


def test_symmetrize_doubles_weighted_edges():
    g = from_edges(np.array([0, 1]), np.array([1, 2]), np.array([2.0, 3.0]), n=3)
    assert g.m == 4
    assert g.weights[int(g.edge_index(np.array([1]), np.array([0]))[0])] == 2.0
    assert g.weights[int(g.edge_index(np.array([2]), np.array([1]))[0])] == 3.0


def test_self_loops_dropped():
    g = from_edges(np.array([0, 1, 2]), np.array([0, 2, 2]), n=3)
    assert g.m == 2  # only 1-2 symmetrized


def test_duplicate_edges_collapse_min_weight():
    g = from_edges(
        np.array([0, 0, 1]), np.array([1, 1, 0]), np.array([5.0, 2.0, 7.0]), n=2
    )
    assert g.m == 2
    assert (g.weights == 2.0).all()


def _assert_edge_index_bruteforce(g, us, vs):
    us_before, vs_before = us.copy(), vs.copy()
    got = g.edge_index(us, vs)
    assert got.dtype == np.int64 and got.shape == us.shape
    np.testing.assert_array_equal(got, brute_edge_index(g, us, vs))
    hit = got >= 0
    assert (g.src[got[hit]] == us[hit]).all()
    assert (g.indices[got[hit]] == vs[hit]).all()
    # The search sorts a private key buffer, never the caller's arrays.
    np.testing.assert_array_equal(us, us_before)
    np.testing.assert_array_equal(vs, vs_before)


def test_edge_index_vs_bruteforce(g):
    rng = np.random.default_rng(0)
    us = rng.integers(0, g.n, 500)
    vs = rng.integers(0, g.n, 500)
    _assert_edge_index_bruteforce(g, us, vs)


@pytest.mark.parametrize("block", [None, 37], ids=["one_block", "blocks_of_37"])
@pytest.mark.parametrize("kind", ["edges_unsorted_dup", "out_of_range", "empty"])
def test_edge_index_vs_bruteforce_query_kinds(g, monkeypatch, kind, block):
    if block is not None:
        # Many sorted blocks, the last one partial.
        monkeypatch.setattr(csr, "_SEARCH_BLOCK", block)
    rng = np.random.default_rng(1)
    if kind == "edges_unsorted_dup":
        # Real edges, repeated and shuffled, mixed with misses.
        e = rng.integers(0, g.m, 400)
        us = np.concatenate([g.src[e], g.src[e[:100]], rng.integers(0, g.n, 100)])
        vs = np.concatenate(
            [g.indices[e], g.indices[e[:100]], rng.integers(0, g.n, 100)]
        )
        perm = rng.permutation(us.shape[0])
        us, vs = us[perm], vs[perm].astype(np.int32)
    elif kind == "out_of_range":
        # Random ids on both sides of [0, n), plus ids whose composite
        # key u*n+v equals that of a real edge.
        e = rng.integers(0, g.m, 50)
        us = np.concatenate(
            [rng.integers(-g.n, 2 * g.n, 600), g.src[e] + 1, g.src[e] - 1]
        )
        vs = np.concatenate(
            [rng.integers(-g.n, 2 * g.n, 600), g.indices[e] - g.n, g.indices[e] + g.n]
        )
    else:
        us, vs = np.array([], dtype=np.int64), np.array([], dtype=np.int64)
    _assert_edge_index_bruteforce(g, us, vs)


def test_edge_index_out_of_range_ids_do_not_alias():
    # With n = 5 the key of (1, -1) is 4, that of edge (0, 4); the key of
    # (0, 5) is 5, that of edge (1, 0).
    g = from_edges(np.array([0, 0]), np.array([4, 1]), n=5)
    u = np.array([1, 0, 2, -1, 5])
    v = np.array([-1, 5, -6, 4, -25])
    assert (g.edge_index(u, v) == -1).all()
    assert not g.has_edge(u, v).any()
    assert g.has_edge(np.array([0, 1]), np.array([4, 0])).all()


def test_edge_index_edgeless_graph():
    g = from_edges(np.array([], dtype=np.int64), np.array([], dtype=np.int64), n=4)
    assert g.m == 0
    got = g.edge_index(np.array([0, 1, 3, -1]), np.array([1, 0, 2, 0]))
    assert got.dtype == np.int64 and (got == -1).all()
    assert not g.has_edge(np.array([0]), np.array([1]))[0]
    assert g.edge_index(np.array([], dtype=np.int64), np.array([])).shape == (0,)


def test_has_edge_matches_edge_index(g):
    rng = np.random.default_rng(1)
    us = rng.integers(0, g.n, 300)
    vs = rng.integers(0, g.n, 300)
    assert (g.has_edge(us, vs) == (g.edge_index(us, vs) >= 0)).all()


def test_has_edge_handles_negative_prev(g):
    # prev = -1 before the second step must simply report "no edge".
    assert not g.has_edge(np.array([0]), np.array([-1]))[0]
    assert not g.has_edge(np.array([-1]), np.array([0]))[0]


def _sorted_queries(g, rng, lo, hi, k):
    """``k`` queries with sources in ``lo..hi`` sorted (duplicates
    included), half of them real edges and half random or out-of-range
    targets."""
    rows = np.sort(rng.integers(lo, hi + 1, k))
    inside = (rows >= 0) & (rows < g.n)
    deg = np.zeros(k, dtype=np.int64)
    deg[inside] = g.degree(rows[inside])
    edge = (rng.random(k) < 0.5) & (deg > 0)
    vs = rng.integers(-3, g.n + 3, k)
    within = (rng.random(k) * np.maximum(deg, 1)).astype(np.int64)
    slot = g.indptr[np.clip(rows, 0, g.n - 1)] + within
    vs[edge] = g.indices[slot[edge]]
    return rows, vs


def _spy_edge_index(monkeypatch):
    """Count calls of ``CSRGraph.edge_index``: 0 after a ``has_edge``
    call means the marker path answered it."""
    calls = []
    orig = csr.CSRGraph.edge_index

    def spy(self, u, v):
        calls.append(len(np.asarray(u)))
        return orig(self, u, v)

    monkeypatch.setattr(csr.CSRGraph, "edge_index", spy)
    return calls


@pytest.mark.parametrize(
    "lo,hi",
    [(0, 0), (5, 40), (-4, 12), (180, 230), (-9, -1), (200, 260)],
    ids=["one_row", "rows", "negative_ids", "ids_past_n", "all_negative", "all_past_n"],
)
def test_has_edge_marker_path_matches_edge_index(g, monkeypatch, lo, hi):
    rng = np.random.default_rng(lo + 1000)
    us, vs = _sorted_queries(g, rng, lo, hi, 700)
    want = g.edge_index(us, vs) >= 0
    calls = _spy_edge_index(monkeypatch)
    got = g.has_edge(us, vs)
    assert calls == []
    assert got.dtype == bool and got.shape == us.shape
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(got, brute_edge_index(g, us, vs) >= 0)


def test_has_edge_marker_path_duplicates_and_empty(g, monkeypatch):
    e = np.repeat(np.arange(30, 60), 3)
    us, vs = g.src[e], g.indices[e].astype(np.int64)
    calls = _spy_edge_index(monkeypatch)
    assert g.has_edge(us, vs).all()
    assert not g.has_edge(us, vs + g.n).any()
    assert calls == []
    empty = np.array([], dtype=np.int64)
    assert g.has_edge(empty, empty).shape == (0,)


def test_has_edge_marker_path_edgeless_graph(monkeypatch):
    g0 = from_edges(np.array([], dtype=np.int64), np.array([], dtype=np.int64), n=4)
    calls = _spy_edge_index(monkeypatch)
    us = np.array([-1, 0, 1, 1, 3, 4])
    assert not g0.has_edge(us, np.array([1, 1, 0, 9, 2, 0])).any()
    assert calls == []


def test_has_edge_marker_path_directed_graph(monkeypatch):
    """Exact without symmetry: (u, v) and (v, u) are different queries."""
    gd = from_edges(
        np.array([0, 0, 1, 2, 3]), np.array([1, 2, 2, 0, 1]), n=5, symmetrize=False
    )
    us = np.array([0, 0, 0, 1, 1, 2, 2, 3, 3, 4])
    vs = np.array([1, 2, 3, 0, 2, 0, 1, 1, 0, 0])
    calls = _spy_edge_index(monkeypatch)
    got = gd.has_edge(us, vs)
    assert calls == []
    np.testing.assert_array_equal(got, brute_edge_index(gd, us, vs) >= 0)
    np.testing.assert_array_equal(
        got, [True, True, False, False, True, True, False, True, False, False]
    )


@pytest.mark.parametrize("kind", ["span_over_bound", "unsorted"])
def test_has_edge_falls_back_to_edge_index(g, monkeypatch, kind):
    rng = np.random.default_rng(5)
    us, vs = _sorted_queries(g, rng, 0, g.n - 1, 500)
    if kind == "span_over_bound":
        # The rows u[0]..u[-1] need more cells than the bound allows.
        span = int(us[-1] - us[0] + 1)
        monkeypatch.setattr(csr, "_MARK_CELLS", span * g.n - 1)
    else:
        perm = rng.permutation(us.shape[0])
        us, vs = us[perm], vs[perm]
    want = brute_edge_index(g, us, vs) >= 0
    calls = _spy_edge_index(monkeypatch)
    np.testing.assert_array_equal(g.has_edge(us, vs), want)
    assert calls == [us.shape[0]]


def test_degree_vectorized(g):
    vs = np.arange(g.n)
    assert (g.degree(vs) == np.diff(g.indptr)).all()


def test_type_count_bruteforce(g):
    tc = g.type_count()
    for v in range(0, g.n, 13):
        nb = g.neighbors(v)
        for t in range(g.n_types):
            assert tc[v, t] == int((g.node_type[nb] == t).sum())


def test_attr_count_bruteforce(g):
    ac = g.attr_count()
    for v in range(0, g.n, 17):
        nb = g.neighbors(v)
        for t in range(g.n_attrs):
            assert ac[v, t] == int((g.node_attr[nb] == t).sum())


def test_weight_sums_bruteforce(g):
    ws = g.weight_sums()
    for v in range(0, g.n, 11):
        np.testing.assert_allclose(ws[v], g.neighbor_weights(v).sum())


def test_edge_type_symmetric(g):
    et = g.edge_type()
    rev = g.edge_index(g.indices.astype(np.int64), g.src)
    assert (et == et[rev]).all()
    assert g.n_edge_types <= g.n_types * (g.n_types + 1) // 2


def test_edge_type_determined_by_endpoint_types(g):
    et = g.edge_type()
    tu = g.node_type[g.src]
    tv = g.node_type[g.indices]
    key = np.minimum(tu, tv) * 100 + np.maximum(tu, tv)
    # Same unordered type pair -> same edge type.
    for pair in np.unique(key):
        assert len(np.unique(et[key == pair])) == 1


def test_caches_are_stable(g):
    assert g.type_count() is g.type_count()
    assert g.weight_sums() is g.weight_sums()
    assert g.edge_type() is g.edge_type()


def test_nbytes_positive(g):
    assert g.nbytes() > 0


def test_homogeneous_defaults():
    g = from_edges(np.array([0, 1]), np.array([1, 2]), n=3)
    assert g.n_types == 1 and (g.node_type == 0).all()
    assert (g.weights == 1.0).all()


def test_node_attr_defaults_to_type():
    nt = node_types(n=10, n_types=3, seed=0)
    g = from_edges(np.array([0, 5]), np.array([1, 6]), n=10, node_type=nt)
    assert (g.node_attr == nt).all()


def test_pickle_roundtrip(g):
    """The pickle (the engine's broadcast) carries only the primary
    arrays; unpickling rebuilds the derived ones, and a pickled sampler
    still shares the unpickled graph."""
    import pickle

    from repro.models import make_model
    from repro.samplers import make_sampler

    g.weight_prefix(), g.type_count()  # lazy caches do not ship
    blob = pickle.dumps(g)
    primary = (
        g.indptr.nbytes + g.indices.nbytes + g.weights.nbytes
        + g.node_type.nbytes + g.node_attr.nbytes
    )
    assert len(blob) < primary + 1024
    g2 = pickle.loads(blob)
    assert g2.n == g.n and g2.m == g.m
    for name in ("indptr", "indices", "weights", "node_type", "node_attr",
                 "src", "comp_key"):
        a, b = getattr(g, name), getattr(g2, name)
        assert a.dtype == b.dtype and (a == b).all(), name
    rng = np.random.default_rng(0)
    u = rng.integers(-2, g.n + 2, 500)
    v = rng.integers(-2, g.n + 2, 500)
    u[:250], v[:250] = g.src[:250], g.indices[:250]
    assert (g2.edge_index(u, v) == g.edge_index(u, v)).all()
    assert (g2.has_edge(u, v) == g.has_edge(u, v)).all()
    assert (g2.has_edge(np.sort(u), v) == g.has_edge(np.sort(u), v)).all()

    s = make_sampler("mh", g, make_model("node2vec"), np.random.default_rng(0))
    s.prepare()
    g3, s3 = pickle.loads(pickle.dumps((g, s)))
    assert s3.g is g3
