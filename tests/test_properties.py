"""Property-based tests (hypothesis) for the numeric substrates."""
import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import theory
from repro.graph.csr import from_edges
from repro.samplers.segment import (
    ragged_arange,
    segment_ids,
    segmented_argmax,
    segmented_choice,
    window_choice,
)


@given(st.lists(st.integers(0, 7), min_size=1, max_size=30))
@settings(max_examples=50, deadline=None)
def test_ragged_arange_matches_python(lens):
    lens = np.array(lens, dtype=np.int64)
    expected = [i for ln in lens for i in range(ln)]
    assert ragged_arange(lens).tolist() == expected


@given(st.lists(st.integers(0, 7), min_size=1, max_size=30))
@settings(max_examples=50, deadline=None)
def test_segment_ids_matches_python(lens):
    lens = np.array(lens, dtype=np.int64)
    expected = [s for s, ln in enumerate(lens) for _ in range(ln)]
    assert segment_ids(lens).tolist() == expected


@given(
    st.lists(
        st.lists(st.floats(0.01, 100.0), min_size=1, max_size=8),
        min_size=1,
        max_size=10,
    ),
    st.integers(0, 2**31),
)
@settings(max_examples=50, deadline=None)
def test_segmented_choice_in_range_and_deterministic(segs, seed):
    w = np.array([x for s in segs for x in s])
    lens = np.array([len(s) for s in segs], dtype=np.int64)
    u = np.random.default_rng(seed).random(len(segs))
    off = segmented_choice(w, lens, u)
    assert ((off >= 0) & (off < lens)).all()
    assert (segmented_choice(w, lens, u) == off).all()


@given(
    st.lists(st.sampled_from([0.0, 0.25, 1.0, 3.0]) | st.floats(0.0, 100.0),
             min_size=1, max_size=40),
    st.lists(
        st.tuples(st.integers(0, 40), st.integers(0, 40),
                  st.floats(0.0, 1.0, exclude_max=True)),
        min_size=1,
        max_size=20,
    ),
)
@settings(max_examples=200, deadline=None)
def test_window_choice_matches_python_inverse_cdf(w, windows):
    cum = np.concatenate([[0.0], np.cumsum(w)])
    m = len(w)
    lo = np.array([min(a, b, m) for a, b, _ in windows], dtype=np.int64)
    hi = np.array([min(max(a, b), m) for a, b, _ in windows], dtype=np.int64)
    u = np.array([x for _, _, x in windows])
    expected = []
    for a, b, x in zip(lo, hi, u):
        total = cum[b] - cum[a]
        if total <= 1e-300:
            expected.append(-1)
            continue
        target = cum[a] + x * total
        # First entry whose running sum passes the target, else the last.
        hit = [j for j in range(a, b) if cum[j + 1] > target]
        expected.append((hit[0] if hit else b - 1) - a)
    assert window_choice(cum, lo, hi, u).tolist() == expected


@given(
    st.lists(
        st.lists(st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 4.0]), max_size=8),
        min_size=1,
        max_size=20,
    )
)
@settings(max_examples=200, deadline=None)
def test_segmented_argmax_matches_per_segment_loop(segs):
    x = np.array([v for s in segs for v in s], dtype=np.float64)
    lens = np.array([len(s) for s in segs], dtype=np.int64)
    expected = []
    for seg in segs:
        seg = np.array(seg)
        expected.append(int(np.argmax(seg)) if seg.size and seg.max() > 0 else -1)
    assert segmented_argmax(x, lens).tolist() == expected


@given(st.integers(2, 200), st.integers(0, 2**31))
@settings(max_examples=50, deadline=None)
def test_lemma1_and_theorem2_any_distribution(n, seed):
    pi = np.random.default_rng(seed).random(n) + 1e-6
    pi /= pi.sum()
    assert theory.lemma1_holds(pi)
    a = theory.theorem2_coefficient(pi)
    assert 0 < a <= 1 + 1e-12


@given(st.integers(2, 50), st.integers(1, 10), st.floats(1.5, 1e4))
@settings(max_examples=50, deadline=None)
def test_theorem3_kappas_consistent_with_condition(n, t, ratio):
    if t >= n:
        t = n - 1
    pi = np.full(n, 1.0 / ratio)
    pi[:t] = 1.0
    pi /= pi.sum()
    # Eq. 12 is exactly the condition kappa_h < kappa_r (Appendix A).
    cond = theory.theorem3_condition(pi)
    kh, kr = theory.kappa_high(pi), theory.kappa_random(pi)
    if cond:
        assert kh < kr + 1e-9
    else:
        assert kh >= kr - 1e-9


@given(
    st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)),
             min_size=1, max_size=120),
    st.booleans(),
)
@settings(max_examples=50, deadline=None)
def test_csr_from_any_edge_list(pairs, weighted):
    src = np.array([a for a, _ in pairs], dtype=np.int64)
    dst = np.array([b for _, b in pairs], dtype=np.int64)
    w = (np.linspace(0.5, 1.5, len(pairs)) if weighted else None)
    g = from_edges(src, dst, w, n=31)
    # invariants under arbitrary inputs
    assert g.indptr[-1] == g.m
    assert (np.diff(g.indptr) >= 0).all()
    if g.m:
        # symmetric and deduplicated
        assert g.has_edge(g.indices.astype(np.int64), g.src).all()
        assert len(np.unique(g.comp_key)) == g.m
        assert (g.src != g.indices).all()
