"""M-H edge sampler (Algorithm 1): convergence, init strategies,
sampler-manager 2D layout."""
import numpy as np
import pytest

from repro.core.abstraction import WalkerBatch
from repro.core.mh_sampler import MHSampler
from repro.core.sampler_manager import SamplerManager
from repro.core.theory import exact_transition, tv_distance
from repro.models import make_model
from repro.samplers.base import MemoryBudget

from tests.util import empirical_distribution, good_state, small_graph, state_batch

MODELS = [
    ("deepwalk", {}, dict()),
    ("node2vec", dict(p=0.25, q=4.0), dict(prev=True)),
    ("node2vec", dict(p=4.0, q=0.25), dict(prev=True)),
    ("edge2vec", {}, dict(prev=True)),
    ("fairwalk", {}, dict(prev=True)),
    ("metapath2vec", {}, dict(req_type=1)),
]


@pytest.fixture(scope="module")
def g():
    return small_graph()


def _probe(g, st):
    v, prev = good_state(g)
    return (
        v,
        prev if st.get("prev") else -1,
        st.get("req_type"),
    )


@pytest.mark.parametrize("init", ["random", "weight", "burn"])
@pytest.mark.parametrize("mname,kw,st", MODELS)
def test_mh_converges_to_exact_transition(g, mname, kw, st, init):
    """The chain's empirical distribution matches the model's exact
    transition distribution (Theorems 1+2: convergence to arbitrary
    targets under the uniform proposal)."""
    model = make_model(mname, **kw)
    v, prev, req = _probe(g, st)
    s = MHSampler(g, model, np.random.default_rng(7), init=init, burn_in=50)
    s.prepare()
    wk = state_batch(g, v, prev, req)
    emp = empirical_distribution(g, s, wk, 8000)
    pi = exact_transition(g, model, v, prev, req)
    # The chain's draws are autocorrelated, so the effective sample size
    # is below 8000; 0.09 TV is ~4 sigma for this support size.
    assert tv_distance(pi, emp) < 0.09


@pytest.mark.parametrize("mname,kw,st", MODELS)
def test_mh_samples_are_valid_edges(g, mname, kw, st):
    model = make_model(mname, **kw)
    v, prev, req = _probe(g, st)
    s = MHSampler(g, model, np.random.default_rng(1))
    s.prepare()
    wk = state_batch(g, v, prev, req, k=200)
    eidx = s.sample(wk)
    assert (eidx >= g.indptr[v]).all() and (eidx < g.indptr[v + 1]).all()


def test_mh_zero_weight_candidates_never_kept(g):
    """Metapath chains must not emit wrong-typed nodes after init."""
    model = make_model("metapath2vec")
    v, _ = good_state(g)
    s = MHSampler(g, model, np.random.default_rng(2), init="random")
    s.prepare()
    wk = state_batch(g, v, req_type=1)
    for _ in range(200):
        e = s.sample(wk)
        assert g.node_type[g.indices[int(e[0])]] == 1


def test_mh_invalid_init_raises(g):
    with pytest.raises(ValueError):
        MHSampler(g, make_model("deepwalk"), np.random.default_rng(0), init="bogus")


def test_mh_lazy_initialization_marks_states(g):
    model = make_model("deepwalk")
    s = MHSampler(g, model, np.random.default_rng(0))
    s.prepare()
    assert s.manager.initialized_count == 0
    wk = state_batch(g, good_state(g)[0])
    s.sample(wk)
    assert s.manager.initialized_count == 1
    s.sample(state_batch(g, int(g.neighbors(good_state(g)[0])[0])))
    assert s.manager.initialized_count == 2


def test_mh_burn_in_costs_proposals(g):
    """Burn-in performs burn_in extra M-H iterations per first touch —
    visible in the proposal counter (the paper's expensive init)."""
    model = make_model("deepwalk")
    wk = state_batch(g, good_state(g)[0])
    s_fast = MHSampler(g, model, np.random.default_rng(0), init="random")
    s_fast.prepare()
    s_fast.sample(wk)
    s_burn = MHSampler(g, model, np.random.default_rng(0), init="burn", burn_in=100)
    s_burn.prepare()
    s_burn.sample(wk)
    assert s_burn.stats["proposals"] >= s_fast.stats["proposals"] + 100


def test_mh_high_weight_init_picks_heavy_slot(g):
    """With hw_samples >= degree the init lands on (near) the argmax
    dynamic weight."""
    model = make_model("deepwalk")
    v, _ = good_state(g)
    deg = int(g.degrees[v])
    s = MHSampler(g, model, np.random.default_rng(3), init="weight",
                  hw_samples=max(64, 4 * deg))
    s.prepare()
    s.sample(state_batch(g, v))
    slot = int(s.manager.get(np.array([v]))[0])
    w = g.neighbor_weights(v)
    assert w[slot] >= np.quantile(w, 0.9)


def test_mh_acceptance_ratio_tracked(g):
    s = MHSampler(g, make_model("node2vec", p=0.25, q=4), np.random.default_rng(0))
    s.prepare()
    v, prev = good_state(g)
    wk = state_batch(g, v, prev)
    for _ in range(100):
        s.sample(wk)
    assert 0 < s.acceptance_ratio <= 1


def test_mh_memory_is_one_slot_per_state(g):
    """O(#states) memory (Table I #states column): |V| for deepwalk,
    |E| for node2vec, |V||Phi| for metapath2vec."""
    for name, expect in [
        ("deepwalk", g.n),
        ("node2vec", g.m),
        ("metapath2vec", g.n * g.n_types),
    ]:
        s = MHSampler(g, make_model(name), np.random.default_rng(0))
        s.prepare()
        assert s.manager.num_states == expect
        assert s.manager.nbytes() == 4 * expect


def test_mh_budget_charged_on_prepare(g):
    b = MemoryBudget(None)
    s = MHSampler(g, make_model("node2vec"), np.random.default_rng(0), budget=b)
    s.prepare()
    assert b.ledger["mh_last_states"] == 4 * g.m


def test_mh_task_copy_starts_empty_without_second_charge(g):
    b = MemoryBudget(None)
    s = MHSampler(g, make_model("node2vec"), np.random.default_rng(0), budget=b)
    s.prepare()
    v, prev = good_state(g)
    s.sample(state_batch(g, v, prev))
    c = s.task_copy()
    assert c.manager is not s.manager
    assert c.manager.num_states == g.m and c.manager.initialized_count == 0
    c.sample(state_batch(g, v, prev))
    assert s.manager.initialized_count == 1
    assert b.ledger == {"mh_last_states": 4 * g.m}


def test_mh_deterministic_given_seed(g):
    model = make_model("node2vec", p=0.5, q=2)
    v, prev = good_state(g)
    outs = []
    for _ in range(2):
        s = MHSampler(g, model, np.random.default_rng(99))
        s.prepare()
        wk = state_batch(g, v, prev, k=50)
        outs.append(np.concatenate([s.sample(wk) for _ in range(5)]))
    assert (outs[0] == outs[1]).all()


def _two_call_sample(s, wk):
    """Algorithm 1's step with separate ``dyn_weight`` calls for
    ``w_last`` and ``w_cand``: the reference for the fused ``sample``."""
    g = s.g
    state = s.model.state_index(g, wk)
    need = s.manager.uninitialized(state)
    if need.any():
        s._initialize(wk.take(need), state[need])
    start = g.indptr[wk.cur]
    last = s.manager.get(state).astype(np.int64)
    w_last = s.model.dyn_weight(g, wk, start + last)
    new_slot, _ = s._mh_iterate(wk, last, w_last)
    s.manager.set(state, new_slot)
    return start + new_slot


@pytest.mark.parametrize("init", ["random", "weight"])
@pytest.mark.parametrize("mname,kw,st", MODELS)
def test_mh_sample_matches_two_call_step(g, mname, kw, st, init):
    """One ``dyn_weight`` call per step draws exactly what two calls
    draw: same slots, LAST_x store and counters on a fixed seed."""
    model = make_model(mname, **kw)
    rng = np.random.default_rng(4)
    e = rng.integers(0, g.m, 400)  # repeated states included
    req = st.get("req_type")
    wk = WalkerBatch(
        cur=g.indices[e].astype(np.int64), prev=g.src[e], prev_eidx=e,
        req_type=None if req is None else rng.integers(0, g.n_types, e.size).astype(np.int16),
    )
    fused, ref = (MHSampler(g, model, np.random.default_rng(7), init=init) for _ in "ab")
    for s in (fused, ref):
        s.prepare()
    for _ in range(5):
        np.testing.assert_array_equal(fused.sample(wk), _two_call_sample(ref, wk))
    np.testing.assert_array_equal(fused.manager.last_slot, ref.manager.last_slot)
    assert fused.stats == ref.stats


# ----------------------------------------------------------------------
# SamplerManager — the 2D data layout (§IV-C)
# ----------------------------------------------------------------------
def test_manager_flat_o1_access():
    m = SamplerManager(100)
    assert m.uninitialized(np.arange(100)).all()
    m.set(np.array([3, 7]), np.array([11, 12]))
    assert m.get(np.array([3]))[0] == 11
    assert m.get(np.array([7]))[0] == 12
    assert m.initialized_count == 2


def test_manager_charges_budget():
    b = MemoryBudget(None)
    SamplerManager(1000, b)
    assert b.ledger["mh_last_states"] == 4000


def test_manager_position_affixture_disjoint(g):
    """Distinct (position, affixture) states map to distinct slots for
    each model — the layout is collision-free."""
    model = make_model("metapath2vec")
    slots = set()
    for v in range(0, 50):
        for t in range(g.n_types):
            wk = state_batch(g, v, req_type=t)
            slots.add(int(model.state_index(g, wk)[0]))
    assert len(slots) == 50 * g.n_types


def test_manager_overwrite_latest_wins():
    m = SamplerManager(10)
    m.set(np.array([1, 1]), np.array([5, 9]))
    assert m.get(np.array([1]))[0] == 9
