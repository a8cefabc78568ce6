"""M-H edge sampler (Algorithm 1): convergence, init strategies,
sampler-manager 2D layout."""
import os
import sys

import numpy as np
import pytest

from repro.core import mh_sampler
from repro.core.abstraction import WalkerBatch
from repro.core.mh_sampler import MHSampler
from repro.core.sampler_manager import SamplerManager
from repro.core.theory import exact_transition, tv_distance
from repro.graph.csr import from_edges
from repro.models import make_model
from repro.samplers import pool
from repro.samplers.base import MemoryBudget

from tests.util import (
    biased_model,
    empirical_distribution,
    good_state,
    small_graph,
    state_batch,
)

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


def _retry_invalid_loop(s, wk, deg, start, slot, w, rounds=6):
    """Reference: ``MHSampler._retry_invalid`` as a per-walker loop."""
    for _ in range(rounds):
        bad = w <= 0.0
        if not bad.any():
            break
        sub = wk.take(bad)
        d = deg[bad]
        retry = np.minimum((s.rng.random(len(sub)) * d).astype(np.int64), d - 1)
        w_retry = s.model.dyn_weight(s.g, sub, start[bad] + retry)
        better = w_retry > 0.0
        idx = np.where(bad)[0][better]
        slot[idx] = retry[better]
        w[idx] = w_retry[better]
    bad = w <= 0.0
    if bad.any():
        sub = wk.take(bad)
        lens = deg[bad]
        sid = np.repeat(np.arange(len(sub)), lens)
        within = np.concatenate([np.arange(n) for n in lens])
        w_all = s.model.dyn_weight(s.g, sub.take(sid), start[bad][sid] + within)
        offs = np.concatenate([[0], np.cumsum(lens)])
        idx = np.where(bad)[0]
        for i in range(len(sub)):
            seg = w_all[offs[i] : offs[i + 1]]
            if seg.size and seg.max() > 0:
                slot[idx[i]] = int(np.argmax(seg))
    return slot


def test_mh_exact_init_scan_matches_per_walker_loop():
    """Walkers needing a type-1 neighbor: at node 0 one among 200, at
    node 300 a tie of two among 60, at node 400 none among 20. The
    uniform retries mostly miss, so the exact scan decides; it must
    pick what the per-walker loop picked."""
    nbrs = {0: range(1, 201), 300: range(301, 361), 400: range(401, 421)}
    src = np.concatenate([np.full(len(r), v) for v, r in nbrs.items()])
    dst = np.concatenate([np.array(r) for r in nbrs.values()])
    nt = np.zeros(421, dtype=np.int16)
    nt[[100, 320, 340]] = 1
    g = from_edges(src, dst, n=421, node_type=nt)
    model = make_model("metapath2vec", metapath=[0, 1, 0])
    cur = np.random.default_rng(0).permutation(np.repeat([0, 300, 400], [30, 30, 10]))
    none = np.full(cur.shape[0], -1, dtype=np.int64)
    wk = WalkerBatch(cur=cur, prev=none, prev_eidx=none,
                     req_type=np.ones(cur.shape[0], dtype=np.int16))
    deg, start = g.degree(cur), g.indptr[cur]
    zeros = np.zeros(cur.shape[0], dtype=np.int64)

    s = MHSampler(g, model, np.random.default_rng(5), init="random")
    got = s._retry_invalid(wk, zeros.copy(), np.zeros(cur.shape[0]))
    ref = MHSampler(g, model, np.random.default_rng(5), init="random")
    want = _retry_invalid_loop(ref, wk, deg, start, zeros.copy(), np.zeros(cur.shape[0]))

    np.testing.assert_array_equal(got, want)
    assert s.rng.random() == ref.rng.random()
    valid = cur != 400
    assert (nt[g.indices[start + got]][valid] == 1).all()
    assert (got[cur == 0] == 99).all()  # node 100 sits in slot 99
    assert (got[~valid] == 0).all()


def test_mh_invalid_init_raises(g):
    with pytest.raises(ValueError):
        MHSampler(g, make_model("deepwalk"), np.random.default_rng(0), init="bogus")


def _with_isolated_node(g):
    """``g`` plus one isolated node of type 0."""
    return from_edges(
        g.src, g.indices, g.weights, n=g.n + 1,
        node_type=np.append(g.node_type, 0), symmetrize=False,
    )


@pytest.mark.parametrize("init", ["random", "weight", "burn"])
@pytest.mark.parametrize("mname", ["node2vec", "deepwalk", "metapath2vec"])
def test_mh_prepare_initializes_exactly_the_live_states(g, mname, init):
    """``prepare()`` gives every state a walk can leave a valid slot
    (one with positive dynamic weight) and leaves the stuck ones at
    ``-1``: the isolated node (deepwalk) and metapath states with no
    neighbor of the required type. A draw from a stuck state returns
    ``-1`` and leaves it uninitialized."""
    gi = _with_isolated_node(g)
    model = biased_model(mname)
    s = MHSampler(gi, model, np.random.default_rng(0), init=init, burn_in=20)
    s.prepare()
    states = model.states(gi)
    stuck = model.stuck(gi, states)
    if mname != "node2vec":
        assert stuck.any()
    last = s.manager.last_slot
    assert last.shape == (model.num_states(gi),)
    np.testing.assert_array_equal(last >= 0, ~stuck)
    live = states.take(~stuck)
    slot = last[~stuck].astype(np.int64)
    assert (slot < gi.degree(live.cur)).all()
    assert (model.dyn_weight(gi, live, gi.indptr[live.cur] + slot) > 0).all()
    assert s.stats == {"proposals": 0, "accepts": 0}

    dead = states.take(stuck)
    if len(dead):
        assert (s.sample(dead) == -1).all()
        assert (last[stuck] == -1).all()


@pytest.mark.parametrize("init", ["random", "weight", "burn"])
@pytest.mark.parametrize("mname", ["node2vec", "deepwalk", "metapath2vec"])
def test_mh_store_identical_for_any_thread_count(g, monkeypatch, mname, init):
    """Chunks of 37 entries, so ``prepare()`` runs many chunks: the store
    is bit-identical on one pool thread, on three, and on more threads
    than CPUs with a short switch interval."""
    monkeypatch.setattr(mh_sampler, "_INIT_CHUNK_ENTRIES", 37)
    gi = _with_isolated_node(g)
    model = biased_model(mname)

    def store(threads):
        monkeypatch.setattr(pool, "cpu_count", lambda: threads)
        s = MHSampler(gi, model, np.random.default_rng(5), init=init, burn_in=10)
        s.prepare()
        return s.manager.last_slot

    ref = store(1)
    assert model.num_states(gi) > 4 * 37
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for threads in (3, len(os.sched_getaffinity(0)) + 3):
            np.testing.assert_array_equal(store(threads), ref)
    finally:
        sys.setswitchinterval(interval)


def test_mh_burn_in_iterates_in_prepare_outside_stats(g, monkeypatch):
    """Burn-in runs ``burn_in`` M-H iterations per state inside
    ``prepare()`` — visible in the dynamic weights it evaluates (the
    paper's expensive init) — and its proposals count in no ``stats``."""
    model = make_model("deepwalk")
    items = []
    orig = type(model).dyn_weight

    def counted(self, g_, wk, cand_eidx):
        items.append(len(cand_eidx))
        return orig(self, g_, wk, cand_eidx)

    monkeypatch.setattr(type(model), "dyn_weight", counted)
    evaluated = {}
    for init in ("random", "burn"):
        items.clear()
        s = MHSampler(g, model, np.random.default_rng(0), init=init, burn_in=100)
        s.prepare()
        evaluated[init] = sum(items)
        assert s.stats == {"proposals": 0, "accepts": 0}
    assert evaluated["burn"] >= evaluated["random"] + 100 * g.n


def test_mh_high_weight_init_picks_heavy_slot(g):
    """With hw_samples >= degree the init lands on (near) the argmax
    dynamic weight."""
    model = make_model("deepwalk")
    v, _ = good_state(g)
    deg = int(g.degrees[v])
    s = MHSampler(g, model, np.random.default_rng(3), init="weight",
                  hw_samples=max(64, 4 * deg))
    s.prepare()
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


def test_mh_task_copy_evolves_private_store_without_second_charge(g):
    """A task copy starts from the prepared store and writes to its own
    copy of it; the prepared store and the ledger do not change."""
    b = MemoryBudget(None)
    s = MHSampler(g, make_model("node2vec"), np.random.default_rng(0), budget=b)
    s.prepare()
    prepared = s.manager.last_slot.copy()
    c = s.task_copy()
    assert c.manager is not s.manager
    assert c.manager.last_slot is not s.manager.last_slot
    np.testing.assert_array_equal(c.manager.last_slot, prepared)
    e = np.random.default_rng(1).integers(0, g.m, 500)
    wk = WalkerBatch(cur=g.indices[e].astype(np.int64), prev=g.src[e], prev_eidx=e)
    for _ in range(5):
        c.sample(wk)
    assert (c.manager.last_slot != prepared).any()
    np.testing.assert_array_equal(s.manager.last_slot, prepared)
    assert s.stats == {"proposals": 0, "accepts": 0}
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
    start = g.indptr[wk.cur]
    last = s.manager.get(state).astype(np.int64)
    w_last = s.model.dyn_weight(g, wk, start + last)
    new_slot, _ = s._mh_iterate(wk, last, w_last)
    new_slot[last < 0] = -1
    s.manager.set(state, new_slot)
    return np.where(new_slot >= 0, start + new_slot, -1)


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
