"""Synthetic graph generators."""
import numpy as np
import pytest

from repro import synth_data


def test_chung_lu_deterministic():
    a = synth_data.chung_lu_edges(n=100, avg_degree=8, seed=5)
    b = synth_data.chung_lu_edges(n=100, avg_degree=8, seed=5)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


def test_chung_lu_sizes():
    src, dst, w = synth_data.chung_lu_edges(n=200, avg_degree=10, seed=0)
    assert src.shape == dst.shape == w.shape == (1000,)
    assert src.min() >= 0 and src.max() < 200


def test_chung_lu_weighted_flag():
    _, _, w0 = synth_data.chung_lu_edges(n=50, avg_degree=4, seed=0, weighted=False)
    _, _, w1 = synth_data.chung_lu_edges(n=50, avg_degree=4, seed=0, weighted=True)
    assert (w0 == 1.0).all()
    assert w1.std() > 0 and (w1 >= 0.5).all() and (w1 <= 1.5).all()


@pytest.mark.parametrize("beta_lo,beta_hi", [(0.1, 0.9)])
def test_chung_lu_beta_controls_skew(beta_lo, beta_hi):
    """Higher beta => heavier degree tail (larger max degree)."""
    from repro.graph.csr import from_edges

    def maxdeg(beta):
        src, dst, w = synth_data.chung_lu_edges(
            n=2000, avg_degree=10, beta=beta, seed=1
        )
        return from_edges(src, dst, w, n=2000).degrees.max()

    assert maxdeg(beta_hi) > 2 * maxdeg(beta_lo)


def test_node_types_shapes_and_range():
    t = synth_data.node_types(n=500, n_types=3, seed=0)
    assert t.shape == (500,) and t.dtype == np.int16
    assert set(np.unique(t)) == {0, 1, 2}


def test_node_types_single_type_zero():
    t = synth_data.node_types(n=50, n_types=1, seed=0)
    assert (t == 0).all()


def test_planted_partition_intra_community_bias():
    src, dst, w, labels = synth_data.planted_partition_edges(
        n=1000, n_communities=4, avg_degree=16, p_in=0.9, seed=0
    )
    same = (labels[src] == labels[dst]).mean()
    assert same > 0.75  # ~p_in plus chance collisions
    assert labels.shape == (1000,)


def test_planted_partition_low_pin_is_random():
    src, dst, w, labels = synth_data.planted_partition_edges(
        n=1000, n_communities=4, avg_degree=16, p_in=0.0, seed=0
    )
    same = (labels[src] == labels[dst]).mean()
    assert same < 0.4  # ~1/4 by chance
