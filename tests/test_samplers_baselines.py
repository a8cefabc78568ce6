"""Baseline edge samplers: exact distributions, budgets, comparator
behaviours (alias / direct / rejection / knightking / memory-aware /
static)."""
import copy
import dataclasses
import os
import pickle
import sys
import threading

import numpy as np
import pytest

from repro.core.abstraction import WalkerBatch
from repro.core.theory import exact_transition, tv_distance
from repro.datasets import DATASETS
from repro.graph.csr import from_edges
from repro.models import make_model
from repro.samplers import SAMPLER_NAMES, alias, make_sampler, pool
from repro.samplers.base import (
    EdgeSampler,
    MemoryBudget,
    MemoryBudgetExceeded,
    StaticSampler,
)
from repro.samplers.segment import ragged_arange, segment_ids, segmented_choice
from repro.walks.kernel import simulate_walks

from tests.util import (
    biased_model,
    empirical_distribution_batched,
    good_state,
    small_graph,
    state_batch,
)

MODELS = [
    ("deepwalk", {}, dict()),
    ("node2vec", dict(p=0.25, q=4.0), dict(prev=True)),
    ("edge2vec", {}, dict(prev=True)),
    ("fairwalk", {}, dict(prev=True)),
    ("metapath2vec", {}, dict(req_type=1)),
]
BASELINES = ["alias", "direct", "rejection", "knightking"]


@pytest.fixture(scope="module")
def g():
    return small_graph()


def _probe(g, st):
    v, prev = good_state(g)
    return v, (prev if st.get("prev") else -1), st.get("req_type")


# ----------------------------------------------------------------------
# Exactness: every memoryless baseline matches the closed-form target
# ----------------------------------------------------------------------
@pytest.mark.parametrize("sname", BASELINES)
@pytest.mark.parametrize("mname,kw,st", MODELS)
def test_baseline_matches_exact_distribution(g, mname, kw, st, sname):
    model = make_model(mname, **kw)
    v, prev, req = _probe(g, st)
    s = make_sampler(sname, g, model, np.random.default_rng(11))
    s.prepare()
    emp = empirical_distribution_batched(g, s, v, prev, req, 30000)
    pi = exact_transition(g, model, v, prev, req)
    assert tv_distance(pi, emp) < 0.03


@pytest.mark.parametrize("mname,kw,st", [("node2vec", dict(p=0.5, q=2.0), dict(prev=True))])
def test_memory_aware_matches_exact_distribution(g, mname, kw, st):
    model = make_model(mname, **kw)
    v, prev, req = _probe(g, st)
    for budget_bytes in [0.0, 1e12]:  # all-direct and all-tables paths
        s = make_sampler(
            "memory_aware", g, model, np.random.default_rng(11),
            table_budget_bytes=budget_bytes,
        )
        s.prepare()
        emp = empirical_distribution_batched(g, s, v, prev, req, 30000)
        pi = exact_transition(g, model, v, prev, req)
        assert tv_distance(pi, emp) < 0.03


def test_static_sampler_matches_static_weights(g):
    s = StaticSampler(g, make_model("deepwalk"), np.random.default_rng(4))
    s.prepare()
    v, _ = good_state(g)
    emp = empirical_distribution_batched(g, s, v, -1, None, 30000)
    w = g.neighbor_weights(v)
    assert tv_distance(w / w.sum(), emp) < 0.03


# ----------------------------------------------------------------------
# Isolated nodes: a walker with no neighbor gets -1, never another
# node's slot
# ----------------------------------------------------------------------
def _isolated_graph():
    """Node 0 is isolated; nodes 1, 2, 3 form a triangle."""
    return from_edges(np.array([1, 2, 2, 3]), np.array([2, 3, 1, 1]), n=4)


def test_static_sampler_isolated_node_returns_minus_one():
    g = _isolated_graph()
    s = StaticSampler(g, make_model("deepwalk"), np.random.default_rng(0))
    s.prepare()
    cur = np.array([0, 1, 2, 3, 0])
    eidx = s.sample_nodes(cur)
    assert (eidx[cur == 0] == -1).all()
    ok = cur != 0
    assert ((eidx[ok] >= g.indptr[cur[ok]]) & (eidx[ok] < g.indptr[cur[ok] + 1])).all()


@pytest.mark.parametrize("sname", ["rejection", "knightking"])
@pytest.mark.parametrize("mname", ["deepwalk", "node2vec"])
def test_rejection_family_isolated_node_returns_minus_one(sname, mname):
    g = _isolated_graph()
    # p = 0.25 gives KnightKing's return edge an excess mass to fold.
    model = biased_model(mname)
    cur = np.array([0, 1, 2, 3, 0])
    prev = np.array([-1, 2, 3, 1, -1]) if model.order == 2 else np.full(5, -1)
    prev_eidx = np.where(prev >= 0, g.edge_index(np.maximum(prev, 0), cur), -1)
    wk = WalkerBatch(cur=cur, prev=prev, prev_eidx=prev_eidx)
    s = make_sampler(sname, g, model, np.random.default_rng(0))
    s.prepare()
    eidx = s.sample(wk)
    assert (eidx[cur == 0] == -1).all()
    ok = cur != 0
    assert ((eidx[ok] >= g.indptr[cur[ok]]) & (eidx[ok] < g.indptr[cur[ok] + 1])).all()
    # A lone isolated walker stops after one proposal, not _MAX_ROUNDS.
    before = s.stats["proposals"]
    assert s.sample(wk.take(np.array([0]))).tolist() == [-1]
    assert s.stats["proposals"] == before + 1


# ----------------------------------------------------------------------
# Segmented helpers
# ----------------------------------------------------------------------
def test_ragged_arange():
    np.testing.assert_array_equal(
        ragged_arange(np.array([3, 0, 2])), [0, 1, 2, 0, 1]
    )
    assert ragged_arange(np.array([], dtype=np.int64)).shape == (0,)


def test_segment_ids():
    np.testing.assert_array_equal(segment_ids(np.array([2, 1, 0, 3])),
                                  [0, 0, 1, 3, 3, 3])


def test_segmented_choice_distribution():
    rng = np.random.default_rng(0)
    w = np.array([1.0, 3.0, 6.0] * 1000)
    lens = np.full(1000, 3)
    counts = np.zeros(3)
    for _ in range(30):
        off = segmented_choice(w, lens, rng.random(1000))
        np.add.at(counts, off, 1)
    np.testing.assert_allclose(counts / counts.sum(), [0.1, 0.3, 0.6], atol=0.02)


def test_segmented_choice_zero_total_returns_minus_one():
    off = segmented_choice(np.zeros(4), np.array([2, 2]), np.array([0.5, 0.5]))
    assert (off == -1).all()


# ----------------------------------------------------------------------
# Streamed table build: bit-identical to an all-at-once build
# ----------------------------------------------------------------------
def _reference_tables(g, model, states=None):
    """All-at-once build (every entry's walker, candidate and weight at
    once, then one ``cumsum``): ``(buf, cum, offs)``, the per-entry
    weights a fresh build must hold and the running sum its first draw
    must make of them, bit for bit. ``states`` selects order-2 edge
    states (memory-aware), in table order; default: every state of the
    model."""
    if model.order == 2:
        prev_eidx = np.arange(g.m, dtype=np.int64) if states is None else states
        cur = g.indices[prev_eidx].astype(np.int64)
        prev, req = g.src[prev_eidx], None
    elif model.name == "metapath2vec":
        T = g.n_types
        flat = np.arange(g.n * T, dtype=np.int64)
        cur, req = flat // T, (flat % T).astype(np.int16)
        prev = prev_eidx = np.full_like(cur, -1)
    else:
        cur = np.arange(g.n, dtype=np.int64)
        prev = prev_eidx = np.full_like(cur, -1)
        req = None
    lens = g.degree(cur)
    sid = segment_ids(lens)
    wk = WalkerBatch(
        cur[sid], prev[sid], prev_eidx[sid], None if req is None else req[sid]
    )
    w = model.dyn_weight(g, wk, g.indptr[cur][sid] + ragged_arange(lens))
    buf = np.concatenate([[0.0], w])
    cum = np.concatenate([[0.0], np.cumsum(w, dtype=np.float64)])
    offs = np.zeros(lens.shape[0] + 1, dtype=np.int64)
    np.cumsum(lens, out=offs[1:])
    return buf, cum, offs


def _assert_bits(a, ref):
    assert a.dtype == np.float64 and a.shape == ref.shape
    np.testing.assert_array_equal(a.view(np.int64), ref.view(np.int64))


def _assert_bit_identical(tables, ref_buf, ref_cum, ref_offs, chunk):
    """Fresh ``tables`` hold the reference weights; their first sum is
    the reference running sum."""
    np.testing.assert_array_equal(tables.offs, ref_offs)
    assert not tables.summed
    _assert_bits(tables.buf, ref_buf)
    _assert_bits(tables.cum(), ref_cum)
    assert tables.summed
    # The patched chunk cut states, and with them source rows, in two.
    cuts = np.arange(chunk, int(ref_offs[-1]), chunk)
    assert (~np.isin(cuts, ref_offs)).sum() > 10


def _chunk_37(monkeypatch, threads=None):
    """Build tables with ``threads`` pool threads (default: this
    machine's CPUs) in chunks of 37 entries, which cut states."""
    if threads is not None:
        monkeypatch.setattr(pool, "cpu_count", lambda: threads)
    monkeypatch.setattr(pool, "MAX_IN_FLIGHT", 37 * pool.cpu_count())


def _check_alias(g, model, ref=None):
    s = make_sampler("alias", g, model, np.random.default_rng(0))
    s.prepare()
    _assert_bit_identical(s._tables, *(ref or _reference_tables(g, model)), 37)


def _assigned(s):
    """A memory-aware sampler's tabled states, in table order."""
    tabled = np.flatnonzero(s._table_id >= 0)
    assigned = np.empty(s.assigned_states, dtype=np.int64)
    assigned[s._table_id[tabled]] = tabled
    return assigned


def _check_memory_aware(g, model, ref_g=None):
    s = make_sampler(
        "memory_aware", g, model, np.random.default_rng(0),
        table_budget_bytes=12.0 * g.m * 4,
    )
    s.prepare()
    assert 0 < s.assigned_states < g.m
    # Tabled states in table order (ranked, not sorted by source).
    assigned = _assigned(s)
    assert (np.diff(g.src[assigned]) < 0).any()
    ref = _reference_tables(ref_g or g, model, assigned)
    _assert_bit_identical(s._tables, *ref, 37)


def _fresh(g):
    """A copy of ``g`` whose lazy caches are not computed yet."""
    return dataclasses.replace(g)


#: The lazy ``CSRGraph`` cache each model's ``dyn_weight`` fills.
LAZY = {"edge2vec": "_edge_type", "fairwalk": "_attr_count"}


@pytest.mark.parametrize("mname,kw,st", MODELS)
def test_alias_tables_match_all_at_once_build(g, monkeypatch, mname, kw, st):
    _chunk_37(monkeypatch)
    _check_alias(g, make_model(mname, **kw))


@pytest.mark.parametrize("mname", ["node2vec", "edge2vec", "fairwalk"])
def test_memory_aware_tables_match_all_at_once_build(g, monkeypatch, mname):
    _chunk_37(monkeypatch)
    _check_memory_aware(g, make_model(mname, p=0.25, q=4.0))


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("mname,kw,st", MODELS)
def test_alias_tables_identical_for_any_thread_count(
    g, monkeypatch, threads, mname, kw, st
):
    """The pooled build equals the reference for one and for several
    threads, including lazy graph caches first filled inside the pool.
    The reference fills its own caches on this thread."""
    _chunk_37(monkeypatch, threads)
    ref = _reference_tables(_fresh(g), make_model(mname, **kw))
    fresh = _fresh(g)
    _check_alias(fresh, make_model(mname, **kw), ref)
    if mname in LAZY:
        assert LAZY[mname] in fresh.__dict__


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("mname", ["node2vec", "edge2vec", "fairwalk"])
def test_memory_aware_tables_identical_for_any_thread_count(
    g, monkeypatch, threads, mname
):
    _chunk_37(monkeypatch, threads)
    model = make_model(mname, p=0.25, q=4.0)
    fresh = _fresh(g)
    _check_memory_aware(fresh, model, ref_g=_fresh(g))
    if mname in LAZY:
        assert LAZY[mname] in fresh.__dict__


def test_table_build_stress_more_threads_than_cpus(g, monkeypatch):
    """More pool threads than CPUs and a short switch interval: every
    chunk's slice and every lazy cache filled in the pool still lands."""
    _chunk_37(monkeypatch, len(os.sched_getaffinity(0)) + 3)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for mname in ("edge2vec", "fairwalk"):
            fresh = _fresh(g)
            done = []
            t = threading.Thread(
                target=lambda: done.append(_check_alias(fresh, make_model(mname)))
            )
            t.start()
            t.join(timeout=120)
            assert not t.is_alive() and done == [None]
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("sname", ["alias", "memory_aware"])
def test_table_build_chunk_failure_propagates(g, monkeypatch, sname):
    """A chunk whose ``dyn_weight`` raises fails ``prepare()``, and the
    sampler still cannot draw."""
    _chunk_37(monkeypatch, 3)
    model = make_model("node2vec")
    bad_state = int(np.argmax(g.degree(g.indices)))
    orig = type(model).dyn_weight

    def dyn_weight(self, g_, wk, cand_eidx):
        if (wk.prev_eidx == bad_state).any():
            raise RuntimeError("chunk failed")
        return orig(self, g_, wk, cand_eidx)

    monkeypatch.setattr(type(model), "dyn_weight", dyn_weight)
    # A budget that tables every state, the failing one included.
    s = make_sampler(sname, g, model, np.random.default_rng(0),
                     **({"table_budget_bytes": 1e12} if sname == "memory_aware" else {}))
    with pytest.raises(RuntimeError, match="chunk failed"):
        s.prepare()
    with pytest.raises(AttributeError):
        s.sample(_edge_states(g, 10, 0))


def _table_sampler(sname, g, model):
    """A prepared alias or memory-aware sampler; memory-aware tables
    every state."""
    kw = {"table_budget_bytes": 1e12} if sname == "memory_aware" else {}
    s = make_sampler(sname, g, model, np.random.default_rng(0), **kw)
    s.prepare()
    return s


def _edge_states(g, k, seed):
    """``k`` walkers mid-walk on random (prev -> cur) edges."""
    e = np.random.default_rng(seed).integers(0, g.m, k)
    return WalkerBatch(
        cur=g.indices[e].astype(np.int64), prev=g.src[e], prev_eidx=e
    )


def _draw(s, wk, seed):
    s.reseed(np.random.default_rng(seed))
    return s.sample(wk)


@pytest.mark.parametrize("sname", ["alias", "memory_aware"])
def test_tables_summed_once_across_copies(g, sname):
    """Task copies and ``copy.copy`` share one table object: the first
    draw sums it in place, and the later draws do not sum it again."""
    model = make_model("node2vec", p=0.25, q=4.0)
    s = _table_sampler(sname, g, model)
    states = _assigned(s) if sname == "memory_aware" else None
    _, ref_cum, _ = _reference_tables(g, model, states)
    wk = _edge_states(g, 500, 1)
    for i, c in enumerate([s.task_copy(), s.task_copy(), copy.copy(s)]):
        assert (_draw(c, wk, i) >= 0).all()
    assert s._tables.summed
    _assert_bits(s._tables.buf, ref_cum)


@pytest.mark.parametrize("sname", ["alias", "memory_aware"])
def test_pickled_tables_draw_like_the_original(g, sname):
    """A sampler pickled before its first draw ships its weights as one
    LZ4 frame and sums them on its own first draw; one pickled after
    ships the sum raw and does not sum it again. Both unpickle to a
    writable buffer and draw the original's slots."""
    s = _table_sampler(sname, g, make_model("node2vec", p=0.25, q=4.0))
    wk = _edge_states(g, 2000, 2)
    assert isinstance(s._tables.__getstate__()["buf"], bytes)
    before = pickle.loads(pickle.dumps(s))
    assert not before._tables.summed
    want = _draw(s, wk, 3)
    assert s._tables.__getstate__()["buf"] is s._tables.buf
    after = pickle.loads(pickle.dumps(s))
    assert after._tables.summed
    for c in (before, after):
        assert c._tables.buf.flags.writeable
        np.testing.assert_array_equal(_draw(c, wk, 3), want)
        _assert_bits(c._tables.buf, s._tables.buf)


def test_unsummed_flickr_alias_tables_pickle_to_an_eighth():
    """node2vec's weights on flickr_lite take a few distinct values, so
    its unsummed alias tables pickle to at most 1/8 of their raw bytes;
    the copy holds the same weights and draws the original's slots."""
    fg = DATASETS["flickr_lite"].build()
    s = _table_sampler("alias", fg, make_model("node2vec", p=0.25, q=4.0))
    assert len(pickle.dumps(s._tables)) <= s._tables.buf.nbytes / 8
    c = pickle.loads(pickle.dumps(s))
    assert c._tables.buf.flags.writeable and not c._tables.summed
    _assert_bits(c._tables.buf, s._tables.buf)
    wk = _edge_states(fg, 2000, 2)
    np.testing.assert_array_equal(_draw(c, wk, 3), _draw(s, wk, 3))


def test_tables_first_draws_race_sum_once(g):
    """More threads than CPUs take their first draw from one table at
    once, under a short switch interval: exactly one sums it."""
    model = make_model("node2vec", p=0.25, q=4.0)
    s = _table_sampler("alias", g, model)
    _, ref_cum, _ = _reference_tables(g, model)
    wk = _edge_states(g, 200, 4)
    n = len(os.sched_getaffinity(0)) + 3
    start = threading.Barrier(n)
    drawn = []

    def draw(i):
        c = s.task_copy()
        c.rng = np.random.default_rng(i)
        start.wait(timeout=60)
        drawn.append(c.sample(wk))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=draw, args=(i,)) for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads) and len(drawn) == n
    finally:
        sys.setswitchinterval(interval)
    _assert_bits(s._tables.buf, ref_cum)


def test_table_build_checks_real_cap_before_allocating(g, monkeypatch):
    """The simulated charge lands first; then the real-entry cap raises
    before any table or weight is built."""
    monkeypatch.setattr(alias, "REAL_ENTRY_CAP", 100)
    model = make_model("node2vec")
    calls = []
    monkeypatch.setattr(
        type(model), "dyn_weight", lambda *a: calls.append(1) or np.zeros(0)
    )
    b = MemoryBudget(None)
    s = make_sampler("alias", g, model, np.random.default_rng(0), b)
    with pytest.raises(MemoryBudgetExceeded, match="real entries"):
        s.prepare()
    entries = int(g.degree(g.indices.astype(np.int64)).sum())
    assert b.ledger["alias_tables"] == 12 * entries
    assert calls == []


# ----------------------------------------------------------------------
# Memory-budget behaviour — the paper's OOM (`*`) mechanism
# ----------------------------------------------------------------------
def test_alias_charges_full_table_bytes(g):
    b = MemoryBudget(None)
    s = make_sampler("alias", g, make_model("node2vec"), np.random.default_rng(0), b)
    s.prepare()
    expected = 12 * int(g.degree(g.indices.astype(np.int64)).sum())
    assert b.ledger["alias_tables"] == expected


def test_alias_oom_under_tight_budget(g):
    b = MemoryBudget(1000.0)
    s = make_sampler("alias", g, make_model("node2vec"), np.random.default_rng(0), b)
    with pytest.raises(MemoryBudgetExceeded):
        s.prepare()


def test_rejection_charges_proposal_alias(g):
    b = MemoryBudget(None)
    s = make_sampler("rejection", g, make_model("node2vec"), np.random.default_rng(0), b)
    s.prepare()
    assert b.ledger["rejection_proposal_alias"] == 12 * g.m


def test_mh_is_cheapest_in_ledger(g):
    model = make_model("node2vec")
    used = {}
    for name in ["mh", "alias", "rejection"]:
        b = MemoryBudget(None)
        make_sampler(name, g, model, np.random.default_rng(0), b).prepare()
        used[name] = b.used
    assert used["mh"] < used["rejection"] < used["alias"]


def test_budget_ledger_accumulates():
    b = MemoryBudget(100.0, label="x")
    b.charge("a", 40)
    b.charge("a", 40)
    assert b.ledger["a"] == 80
    with pytest.raises(MemoryBudgetExceeded):
        b.charge("b", 40)


# ----------------------------------------------------------------------
# Comparator behaviours from the paper
# ----------------------------------------------------------------------
def test_rejection_acceptance_drops_with_skewed_params(g):
    """Table II's mechanism: θ ~ 1 at (1,1), low at skewed (p,q)."""
    v, prev = good_state(g)
    acs = {}
    for p, q in [(1, 1), (0.25, 1), (1, 4)]:
        s = make_sampler(
            "rejection", g, make_model("node2vec", p=p, q=q),
            np.random.default_rng(0),
        )
        s.prepare()
        empirical_distribution_batched(g, s, v, prev, None, 5000)
        acs[(p, q)] = s.acceptance_ratio
    assert acs[(1, 1)] > 0.95
    assert acs[(0.25, 1)] < acs[(1, 1)]
    assert acs[(1, 4)] < acs[(1, 1)]


def test_knightking_folding_beats_rejection_on_small_p(g):
    """Outlier folding pre-accepts the 1/p mass: higher acceptance than
    plain rejection when p << 1 (paper §V-E)."""
    v, prev = good_state(g)
    model = make_model("node2vec", p=0.05, q=1.0)
    ac = {}
    for name in ["rejection", "knightking"]:
        s = make_sampler(name, g, model, np.random.default_rng(0))
        s.prepare()
        empirical_distribution_batched(g, s, v, prev, None, 5000)
        ac[name] = s.acceptance_ratio
    assert ac["knightking"] > ac["rejection"] * 1.5


def test_knightking_no_folding_gain_on_small_q(g):
    """q < 1 inflates the bound over many edges — folding cannot help
    (the paper's q-sensitivity asymmetry)."""
    v, prev = good_state(g)
    model = make_model("node2vec", p=1.0, q=0.1)
    ac = {}
    for name in ["rejection", "knightking"]:
        s = make_sampler(name, g, model, np.random.default_rng(0))
        s.prepare()
        empirical_distribution_batched(g, s, v, prev, None, 5000)
        ac[name] = s.acceptance_ratio
    assert ac["knightking"] < ac["rejection"] * 1.25


def test_memory_aware_assignment_monotone_in_budget(g):
    model = make_model("node2vec")
    counts = []
    for budget_bytes in [0, 4 * g.m, 64 * g.m, 1e12]:
        s = make_sampler(
            "memory_aware", g, model, np.random.default_rng(0),
            table_budget_bytes=float(budget_bytes),
        )
        s.prepare()
        counts.append(s.assigned_states)
    assert counts == sorted(counts)
    assert counts[0] == 0 and counts[-1] == g.m


def test_memory_aware_rejects_first_order(g):
    with pytest.raises(ValueError):
        make_sampler("memory_aware", g, make_model("deepwalk"), np.random.default_rng(0))


def test_knightking_first_order_is_exact_static(g):
    s = make_sampler("knightking", g, make_model("deepwalk"), np.random.default_rng(0))
    s.prepare()
    assert s.acceptance_ratio == 1.0
    v, _ = good_state(g)
    emp = empirical_distribution_batched(g, s, v, -1, None, 20000)
    w = g.neighbor_weights(v)
    assert tv_distance(w / w.sum(), emp) < 0.03


def test_sampler_registry_unknown(g):
    with pytest.raises(KeyError):
        make_sampler("bogus", g, make_model("deepwalk"), np.random.default_rng(0))


@pytest.mark.parametrize(
    "sname,kw",
    [
        ("alias", dict(table_budget_bytes=1.0)),
        ("direct", dict(burn_in=5)),
        ("rejection", dict(hw_samples=4)),
    ],
)
def test_sampler_registry_rejects_unknown_keyword(g, sname, kw):
    """A keyword the sampler's constructor lacks raises instead of being
    dropped."""
    (key,) = kw
    model = make_model("node2vec")
    with pytest.raises(TypeError, match=key):
        make_sampler(sname, g, model, np.random.default_rng(0), **kw)


@pytest.mark.parametrize("sname", [n for n in SAMPLER_NAMES if n != "direct"])
def test_unprepared_sampler_cannot_draw(g, sname):
    """``prepare()`` is the one way to a sampler's tables and state
    (``T_i``): a draw before it raises and charges nothing."""
    budget = MemoryBudget(None)
    s = make_sampler(sname, g, make_model("node2vec", p=0.25, q=4.0),
                     np.random.default_rng(0), budget)
    with pytest.raises(AttributeError):
        s.sample(_edge_states(g, 10, 0))
    assert budget.ledger == {}


ISOLATION = [
    (m, n) for m in ("node2vec", "deepwalk") for n in SAMPLER_NAMES
    if not (m == "deepwalk" and n == "memory_aware")
]


@pytest.mark.parametrize("mname,sname", ISOLATION)
def test_task_copies_are_isolated(g, mname, sname):
    """Two reseeded task copies of one prepared sampler draw and count
    like solo runs with their seeds, and the prepared sampler counts
    nothing: a copy shares only the graph and read-only tables, and no
    sampler holds another sampler."""
    model = biased_model(mname)
    starts = model.start_nodes(g)[:40]
    s = make_sampler(sname, g, model, np.random.default_rng(0))
    s.prepare()
    assert not [k for k, v in vars(s).items() if isinstance(v, EdgeSampler)]

    def walk(c):
        return simulate_walks(g, model, starts, 10, c, c.rng), dict(c.stats)

    def solo(seed):
        c = s.task_copy()
        c.reseed(np.random.default_rng(seed))
        return walk(c)

    a, b = s.task_copy(), s.task_copy()
    a.reseed(np.random.default_rng(1))
    b.reseed(np.random.default_rng(2))
    for c, seed in ((a, 1), (b, 2)):
        walks, stats = walk(c)
        want_walks, want_stats = solo(seed)
        np.testing.assert_array_equal(walks, want_walks)
        assert stats == want_stats and stats["proposals"] > 0
    assert s.stats == {"proposals": 0, "accepts": 0}
