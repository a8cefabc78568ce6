"""Model dynamic weights vs the closed-form Eqs. 1-5 (Table IV)."""
import numpy as np
import pytest

from repro.core.abstraction import node2vec_alpha
from repro.core.theory import exact_transition
from repro.graph.csr import from_edges
from repro.models import MODEL_INFO, make_model
from repro.models.edge2vec import default_transition_matrix
from repro.samplers.segment import neighbor_dyn_weights, ragged_arange

from tests.util import good_state, small_graph, state_batch


@pytest.fixture(scope="module")
def g():
    return small_graph()


def _manual_alpha(g, prev, cand, p, q):
    if cand == prev:
        return 1.0 / p
    if prev in g.neighbors(cand):
        return 1.0
    return 1.0 / q


# ----------------------------------------------------------------------
# Eq. 1 — deepwalk
# ----------------------------------------------------------------------
def test_deepwalk_transition_is_static_weights(g):
    model = make_model("deepwalk")
    v, _ = good_state(g)
    pi = exact_transition(g, model, v)
    w = g.neighbor_weights(v)
    np.testing.assert_allclose(pi, w / w.sum())


def test_deepwalk_states(g):
    model = make_model("deepwalk")
    assert model.num_states(g) == g.n
    wk = state_batch(g, 5, k=3)
    assert (model.state_index(g, wk) == 5).all()


# ----------------------------------------------------------------------
# Eq. 2 — node2vec
# ----------------------------------------------------------------------
@pytest.mark.parametrize("p,q", [(1, 1), (0.25, 4), (4, 0.25), (0.5, 2)])
def test_node2vec_alpha_bruteforce(g, p, q):
    model = make_model("node2vec", p=p, q=q)
    v, prev = good_state(g)
    wk = state_batch(g, v, prev, k=int(g.degrees[v]))
    eidx = g.indptr[v] + np.arange(g.degrees[v])
    got = model.dyn_weight(g, wk, eidx)
    for i, u in enumerate(g.neighbors(v)):
        a = _manual_alpha(g, prev, int(u), p, q)
        np.testing.assert_allclose(got[i], a * g.neighbor_weights(v)[i])


@pytest.mark.parametrize("p,q", [(1, 1), (0.25, 4)])
def test_node2vec_transition_normalizes(g, p, q):
    v, prev = good_state(g)
    pi = exact_transition(g, make_model("node2vec", p=p, q=q), v, prev)
    np.testing.assert_allclose(pi.sum(), 1.0)
    assert (pi > 0).all()


def test_node2vec_pq_one_equals_deepwalk(g):
    v, prev = good_state(g)
    pi_n2v = exact_transition(g, make_model("node2vec", p=1, q=1), v, prev)
    pi_dw = exact_transition(g, make_model("deepwalk"), v)
    np.testing.assert_allclose(pi_n2v, pi_dw)


def test_node2vec_return_bias(g):
    """Small p inflates the probability of returning to prev (Eq. 2)."""
    v, prev = good_state(g)
    slot = int(np.where(g.neighbors(v) == prev)[0][0])
    pi_lo = exact_transition(g, make_model("node2vec", p=0.1, q=1), v, prev)
    pi_hi = exact_transition(g, make_model("node2vec", p=10, q=1), v, prev)
    assert pi_lo[slot] > pi_hi[slot]


def test_node2vec_states_and_bound(g):
    m = make_model("node2vec", p=0.25, q=4)
    assert m.num_states(g) == g.m
    assert m.weight_bound(g) == 4.0
    v, prev = good_state(g)
    wk = state_batch(g, v, prev, k=2)
    assert (m.state_index(g, wk) == wk.prev_eidx).all()


def test_node2vec_alpha_helper_vectorized(g):
    v, prev = good_state(g)
    cand = g.neighbors(v).astype(np.int64)
    a = node2vec_alpha(g, np.full(cand.shape[0], prev), cand, 0.25, 4.0)
    for i, u in enumerate(cand):
        assert a[i] == pytest.approx(_manual_alpha(g, prev, int(u), 0.25, 4.0))


# ----------------------------------------------------------------------
# Eq. 4 — metapath2vec
# ----------------------------------------------------------------------
def test_metapath_zero_weight_on_wrong_type(g):
    model = make_model("metapath2vec", metapath=[0, 1, 0])
    v, _ = good_state(g)
    deg = int(g.degrees[v])
    wk = state_batch(g, v, req_type=1, k=deg)
    w = model.dyn_weight(g, wk, g.indptr[v] + np.arange(deg))
    nb_types = g.node_type[g.neighbors(v)]
    assert (w[nb_types != 1] == 0).all()
    assert (w[nb_types == 1] > 0).all()


def test_metapath_transition_matches_eq4(g):
    model = make_model("metapath2vec")
    v, _ = good_state(g)
    pi = exact_transition(g, model, v, req_type=1)
    nb_types = g.node_type[g.neighbors(v)]
    w = np.where(nb_types == 1, g.neighbor_weights(v), 0.0)
    np.testing.assert_allclose(pi, w / w.sum())


def test_metapath_cycle_and_required_type(g):
    model = make_model("metapath2vec", metapath=[0, 1, 0])
    st = np.zeros(4, dtype=np.int16)
    # walk positions: 0->type0, 1->type1, 2->type0, 3->type1 ...
    assert (model.required_type(g, 1, st) == 1).all()
    assert (model.required_type(g, 2, st) == 0).all()
    assert (model.required_type(g, 3, st) == 1).all()


def test_metapath_start_nodes_typed(g):
    model = make_model("metapath2vec", metapath=[2, 0, 2])
    starts = model.start_nodes(g)
    assert (g.node_type[starts] == 2).all()


def test_metapath_states(g):
    model = make_model("metapath2vec")
    assert model.num_states(g) == g.n * g.n_types
    wk = state_batch(g, 7, req_type=2, k=1)
    assert model.state_index(g, wk)[0] == 7 * g.n_types + 2


def test_metapath_stuck_detection(g):
    model = make_model("metapath2vec")
    tc = g.type_count()
    # find a (node, type) with no neighbors of that type
    cand = np.argwhere(tc == 0)
    assert cand.shape[0] > 0
    v, t = int(cand[0][0]), int(cand[0][1])
    wk = state_batch(g, v, req_type=t, k=1)
    assert model.stuck(g, wk)[0]


# ----------------------------------------------------------------------
# Eq. 3 — edge2vec
# ----------------------------------------------------------------------
def test_edge2vec_weight_bruteforce(g):
    model = make_model("edge2vec", p=0.25, q=4)
    M = model._matrix(g)
    v, prev = good_state(g)
    et = g.edge_type()
    prev_eidx = int(g.edge_index(np.array([prev]), np.array([v]))[0])
    deg = int(g.degrees[v])
    wk = state_batch(g, v, prev, k=deg)
    got = model.dyn_weight(g, wk, g.indptr[v] + np.arange(deg))
    for i, u in enumerate(g.neighbors(v)):
        a = _manual_alpha(g, prev, int(u), 0.25, 4)
        trans = M[et[prev_eidx], et[g.indptr[v] + i]]
        np.testing.assert_allclose(got[i], a * trans * g.neighbor_weights(v)[i])


def test_edge2vec_transition_matrix_row_stochastic():
    M = default_transition_matrix(5, seed=1)
    np.testing.assert_allclose(M.sum(axis=1), 1.0)
    assert (M > 0).all()


def test_edge2vec_uniform_matrix_reduces_to_node2vec(g):
    v, prev = good_state(g)
    M = np.full((g.n_edge_types, g.n_edge_types), 1.0 / g.n_edge_types)
    e2v = make_model("edge2vec", p=0.25, q=4, M=M)
    n2v = make_model("node2vec", p=0.25, q=4)
    np.testing.assert_allclose(
        exact_transition(g, e2v, v, prev), exact_transition(g, n2v, v, prev)
    )


# ----------------------------------------------------------------------
# Eq. 5 — fairwalk
# ----------------------------------------------------------------------
def test_fairwalk_weight_bruteforce(g):
    model = make_model("fairwalk", p=1, q=1)
    v, prev = good_state(g)
    deg = int(g.degrees[v])
    wk = state_batch(g, v, prev, k=deg)
    got = model.dyn_weight(g, wk, g.indptr[v] + np.arange(deg))
    nb = g.neighbors(v)
    for i, u in enumerate(nb):
        cnt = int((g.node_attr[nb] == g.node_attr[u]).sum())
        np.testing.assert_allclose(got[i], g.neighbor_weights(v)[i] / cnt)


def test_fairwalk_group_mass_uniform_on_unweighted():
    """On an unweighted graph with p=q=1, fairwalk gives each attribute
    group equal total probability (the fairness property)."""
    g = small_graph(weighted=False, seed=9)
    model = make_model("fairwalk", p=1, q=1)
    v, prev = good_state(g)
    nb = g.neighbors(v)
    # Fairness holds among groups with no prev-specific alpha: use prev
    # far away -> all alpha = 1/q = 1? prev is a neighbor, so alpha
    # varies; instead check on the state ignoring alpha via p=q=1 and a
    # graph where every neighbor of v has alpha=1 is not guaranteed;
    # compare group masses of w'/alpha directly.
    deg = int(g.degrees[v])
    wk = state_batch(g, v, prev, k=deg)
    w = model.dyn_weight(g, wk, g.indptr[v] + np.arange(deg))
    from repro.core.abstraction import node2vec_alpha

    a = node2vec_alpha(g, wk.prev, nb.astype(np.int64), 1, 1)
    base = w / a
    groups = g.node_attr[nb]
    masses = [base[groups == t].sum() for t in np.unique(groups)]
    np.testing.assert_allclose(masses, masses[0])


def test_fairwalk_states(g):
    m = make_model("fairwalk")
    assert m.num_states(g) == g.m
    assert m.weight_bound(g) == 1.0


# ----------------------------------------------------------------------
# Registry (Table I)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", list(MODEL_INFO))
def test_registry_builds_all(name, g):
    m = make_model(name)
    assert m.name == name
    assert m.order == MODEL_INFO[name]["order"]
    assert m.num_states(g) > 0


# ----------------------------------------------------------------------
# The model contract: each model owns its state space and weight bound
# ----------------------------------------------------------------------
CONTRACT_MODELS = [
    ("deepwalk", {}),
    ("node2vec", dict(p=0.25, q=4.0)),
    ("node2vec", dict(p=4.0, q=0.25)),
    ("metapath2vec", dict(metapath=[0, 1, 2, 0])),
    ("edge2vec", dict(p=0.5, q=2.0)),
    ("fairwalk", dict(p=0.25, q=1.0)),
]


@pytest.mark.parametrize("name,kw", CONTRACT_MODELS)
def test_states_enumerate_the_state_space_in_index_order(g, name, kw):
    m = make_model(name, **kw)
    states = m.states(g)
    np.testing.assert_array_equal(
        m.state_index(g, states), np.arange(m.num_states(g))
    )
    if m.order == 2:
        # Edge-source order: has_edge's marker path applies.
        assert (np.diff(states.prev) >= 0).all()
    # A range of states, as the M-H initialization's chunks take them.
    n = m.num_states(g)
    for lo, hi in [(0, n), (0, 1), (n // 3, 2 * n // 3), (n - 5, n), (n, n)]:
        part, want = m.states(g, lo, hi), states.take(np.arange(lo, hi))
        for f in ("cur", "prev", "prev_eidx", "req_type"):
            a, b = getattr(part, f), getattr(want, f)
            if b is None:
                assert a is None
            else:
                assert a.dtype == b.dtype
                np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize("name,kw", CONTRACT_MODELS)
def test_weight_bound_covers_every_state_and_candidate(g, name, kw):
    m = make_model(name, **kw)
    states = m.states(g)
    w_dyn, lens = neighbor_dyn_weights(g, m, states)
    cand_eidx = np.repeat(g.indptr[states.cur], lens) + ragged_arange(lens)
    assert (w_dyn <= m.weight_bound(g) * g.weights[cand_eidx]).all()


@pytest.mark.parametrize("metapath", [[0, 1, 0], [3, 0, 3], [0, -1, 0]])
def test_metapath_missing_type_raises(metapath):
    """A one-type graph has no type 1, 3 or -1: every entry point that
    would index by the missing type names it instead."""
    g1 = from_edges(np.array([0, 1]), np.array([1, 2]), n=3)
    m = make_model("metapath2vec", metapath=metapath)
    calls = [
        lambda: m.start_nodes(g1),
        lambda: m.required_type(g1, 1, np.zeros(2, dtype=np.int16)),
        lambda: m.num_states(g1),
        lambda: m.states(g1),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="missing"):
            call()


def test_metapath_empty_raises():
    with pytest.raises(ValueError):
        make_model("metapath2vec", metapath=[])


def test_registry_unknown():
    with pytest.raises(KeyError):
        make_model("nope")


def test_registry_paper_defaults():
    assert make_model("edge2vec").p == 0.25
    assert make_model("fairwalk").q == 1.0
