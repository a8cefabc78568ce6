"""Registry of synthetic stand-ins for the paper's eleven datasets.

Each entry pins a seeded Chung-Lu generator configuration whose shape
(size ratio, mean degree, degree skew, #node types) mirrors one of the
paper's Table V datasets at reduced scale (DESIGN.md §3), plus the
paper's true statistics so harnesses can (a) print paper-vs-ours rows
and (b) derive the proportional memory budget: the paper's 96 GB server
scaled by ``our CSR slots / paper |E|``, which reproduces the paper's
out-of-memory pattern sampler-by-sampler.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.graph.csr import CSRGraph, from_edges
from repro.synth_data import chung_lu_edges, node_types

PAPER_RAM_BYTES = 96e9  # the paper's evaluation server (§V-A)


@dataclass(frozen=True)
class DatasetSpec:
    name: str
    paper_name: str
    n: int
    avg_degree: float
    beta: float
    n_types: int = 1
    weighted: bool = False
    seed: int = 0
    #: Table V row: (|V|, |E|, mean degree, #types)
    paper_stats: Tuple[float, float, float, int] = (0, 0, 0.0, 1)
    #: Fairwalk attribute groups to synthesize on homogeneous networks.
    n_attr_groups: int = 2

    @property
    def paper_edges(self) -> float:
        return float(self.paper_stats[1])

    def build(self) -> CSRGraph:
        src, dst, w = chung_lu_edges(
            n=self.n,
            avg_degree=self.avg_degree,
            beta=self.beta,
            seed=self.seed,
            weighted=self.weighted,
        )
        nt = node_types(n=self.n, n_types=self.n_types, seed=self.seed)
        # Fairwalk needs >=2 attribute groups even on homogeneous nets.
        if self.n_types > 1:
            attr = nt
        else:
            attr = node_types(n=self.n, n_types=self.n_attr_groups, seed=self.seed + 1)
        return from_edges(src, dst, w, n=self.n, node_type=nt, node_attr=attr)

    def budget_bytes(self, g: CSRGraph) -> float:
        """96 GB scaled by our-slots / paper-edges (DESIGN.md §3)."""
        return PAPER_RAM_BYTES * g.m / self.paper_edges


_K, _M, _B = 1e3, 1e6, 1e9

#: name -> spec; paper Table V order. Sizes tuned so the ``jobs/`` tables
#: finish on one machine while every sampler-feasibility contrast
#: of the paper (which sampler OOMs where) is preserved by the
#: proportional budget.
DATASETS: Dict[str, DatasetSpec] = {
    s.name: s
    for s in [
        DatasetSpec("blogcatalog_lite", "BlogCatalog", 1_000, 55, 0.45, seed=11,
                    paper_stats=(10.3 * _K, 668 * _K, 64.9, 1)),
        DatasetSpec("flickr_lite", "Flickr", 3_000, 60, 0.55, seed=12,
                    paper_stats=(80.5 * _K, 11.8 * _M, 146.6, 1)),
        DatasetSpec("amazon_lite", "Amazon", 8_000, 6, 0.40, seed=13,
                    paper_stats=(335 * _K, 1.9 * _M, 5.67, 1)),
        DatasetSpec("reddit_lite", "Reddit", 5_000, 40, 0.50, seed=14,
                    paper_stats=(231 * _K, 11.6 * _M, 50.21, 1)),
        DatasetSpec("youtube_lite", "YouTube", 20_000, 5, 0.55, seed=15,
                    paper_stats=(1.1 * _M, 6.0 * _M, 5.3, 1)),
        DatasetSpec("livejournal_lite", "LiveJournal", 30_000, 14, 0.65, seed=16,
                    paper_stats=(4.8 * _M, 86.2 * _M, 17.8, 1)),
        DatasetSpec("twitter_sim", "Twitter", 50_000, 30, 0.60, seed=17,
                    paper_stats=(41.6 * _M, 2.9 * _B, 69.7, 1)),
        DatasetSpec("webuk_sim", "Web-UK", 80_000, 30, 0.55, seed=18,
                    paper_stats=(105.9 * _M, 6.6 * _B, 62.6, 1)),
        DatasetSpec("acm_lite", "ACM", 1_500, 3, 0.40, n_types=3, seed=19,
                    paper_stats=(11.2 * _K, 34.8 * _K, 3.11, 3)),
        DatasetSpec("dblp_lite", "DBLP", 3_500, 9, 0.45, n_types=3, seed=20,
                    paper_stats=(37.8 * _K, 341.6 * _K, 9.04, 3)),
        DatasetSpec("dbis_lite", "DBIS", 8_000, 4, 0.45, n_types=3, seed=21,
                    paper_stats=(134.1 * _K, 530.6 * _K, 3.96, 3)),
        DatasetSpec("aminer_lite", "AMiner", 25_000, 5, 0.50, n_types=3, seed=22,
                    paper_stats=(4.9 * _M, 25.0 * _M, 5.10, 3)),
    ]
}

_cache: Dict[str, CSRGraph] = {}


def load(name: str, cache: bool = True) -> CSRGraph:
    """Build (and memoize) a stand-in graph by registry name."""
    if cache and name in _cache:
        return _cache[name]
    g = DATASETS[name].build()
    if cache:
        _cache[name] = g
    return g
