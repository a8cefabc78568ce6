"""Dataset registry + the paper-scaled memory budget star pattern.

The high-value reproduction test: with the proportional budget
(DESIGN.md §3), each sampler must succeed/fail on exactly the datasets
where the paper's Table VI/VII report success/OOM.
"""
import numpy as np
import pytest

from repro.bench_utils import paper_budget
from repro.datasets import DATASETS, DatasetSpec, load
from repro.models import make_model
from repro.samplers import MemoryBudgetExceeded, make_sampler


@pytest.mark.parametrize("name", list(DATASETS))
def test_registry_builds_and_matches_spec(name):
    spec = DATASETS[name]
    g = load(name)
    assert g.n <= spec.n
    assert g.m > 0
    assert g.n_types == spec.n_types
    if spec.n_types == 1:
        assert g.n_attrs == spec.n_attr_groups  # fairwalk groups
    # Mean degree within 2.5x of the configured target (dedup losses).
    mean_deg = g.m / (g.degrees > 0).sum()
    assert spec.avg_degree / 2.5 < mean_deg < spec.avg_degree * 1.5


@pytest.mark.parametrize("name", list(DATASETS))
def test_registry_graphs_are_symmetric(name):
    """(u, v) is an edge slot iff (v, u) is: node2vec's α asks
    ``has_edge(prev, cand)`` for ``d(cand, prev) == 1``."""
    g = load(name)
    reverse_key = np.sort(g.indices.astype(np.int64) * g.n + g.src)
    np.testing.assert_array_equal(reverse_key, g.comp_key)


def test_load_caches():
    assert load("acm_lite") is load("acm_lite")


def test_budget_scales_with_paper_size():
    g_t = load("twitter_sim")
    g_b = load("blogcatalog_lite")
    per_slot_t = DATASETS["twitter_sim"].budget_bytes(g_t) / g_t.m
    per_slot_b = DATASETS["blogcatalog_lite"].budget_bytes(g_b) / g_b.m
    # Billion-edge stand-ins get only tens of bytes per slot; small
    # datasets get orders of magnitude more.
    assert per_slot_t < 100 < per_slot_b


def _fits(name: str, sampler: str, model_name: str = "node2vec") -> bool:
    g = load(name)
    spec = DATASETS[name]
    model = make_model(model_name)
    b = paper_budget(spec, g)
    s = make_sampler(sampler, g, model, np.random.default_rng(0), b)
    try:
        s.prepare()
    except MemoryBudgetExceeded:
        return False
    return True


# -- Table VII star pattern -------------------------------------------
@pytest.mark.parametrize("name", ["twitter_sim", "webuk_sim"])
def test_alias_ooms_on_billion_edge(name):
    assert not _fits(name, "alias")


def test_rejection_fits_twitter_fails_webuk():
    assert _fits("twitter_sim", "rejection")
    assert not _fits("webuk_sim", "rejection")


def test_knightking_fits_twitter_fails_webuk():
    assert _fits("twitter_sim", "knightking")
    assert not _fits("webuk_sim", "knightking")


@pytest.mark.parametrize("name", ["twitter_sim", "webuk_sim"])
@pytest.mark.parametrize("sampler", ["mh", "mh-random", "mh-burn", "memory_aware"])
def test_mh_and_memory_aware_fit_everywhere(name, sampler):
    assert _fits(name, sampler)


# -- Table VI / Fig 7 pattern on smaller networks ----------------------
@pytest.mark.parametrize(
    "name", ["blogcatalog_lite", "amazon_lite", "reddit_lite", "flickr_lite",
             "youtube_lite"]
)
def test_alias_fits_small_and_medium(name):
    assert _fits(name, "alias")


def test_alias_ooms_on_livejournal():
    # Fig. 7: alias is not shown on LiveJournal due to OOM.
    assert not _fits("livejournal_lite", "alias")


def test_direct_and_mh_fit_all_datasets():
    for name in DATASETS:
        assert _fits(name, "direct")
        assert _fits(name, "mh")


def test_spec_paper_edges():
    assert DATASETS["twitter_sim"].paper_edges == pytest.approx(2.9e9)


def test_hetero_datasets_have_types():
    for name in ["acm_lite", "dblp_lite", "dbis_lite", "aminer_lite"]:
        g = load(name)
        assert g.n_types == 3
        assert g.n_edge_types >= 3


def test_custom_spec_build():
    spec = DatasetSpec("tiny", "Tiny", 60, 4, 0.4, seed=1,
                       paper_stats=(100, 400, 4.0, 1))
    g = spec.build()
    assert g.n == 60
    assert spec.budget_bytes(g) == pytest.approx(96e9 * g.m / 400)
