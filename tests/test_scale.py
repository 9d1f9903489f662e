"""Moderate-scale smoke tests: the library stays usable at 10^4-10^5 scale.

Not performance assertions (wall time varies by machine) but sanity bounds:
construction stays vectorized, the solver completes within generous work
budgets, and laziness keeps the touched fraction tiny on periphery-heavy
instances.
"""

import numpy as np

from repro import LazyMCConfig, lazymc
from repro.graph import coreness
from repro.graph.generators import (
    gnp_random, hierarchical_web, planted_clique, with_periphery,
)


class TestLargeConstruction:
    def test_large_sparse_gnp(self):
        g = gnp_random(100_000, 0.00005, seed=1)
        assert g.n == 100_000
        # ~ n(n-1)/2 * p = 250k edges.
        assert 180_000 < g.m < 320_000

    def test_csr_memory_layout(self):
        g = gnp_random(50_000, 0.0001, seed=2)
        assert g.indices.dtype == np.int32
        assert g.indptr.dtype == np.int64


class TestLargeSolve:
    def test_planted_clique_in_30k_graph(self):
        core, members = planted_clique(3_000, 0.002, 16, seed=3)
        g = with_periphery(core, 27_000, seed=4)
        r = lazymc(g, LazyMCConfig(max_seconds=120))
        assert not r.timed_out
        assert r.omega == 16
        assert r.clique == list(members)

    def test_zero_gap_crawl_50k(self):
        core = hierarchical_web(3, 2, core_clique=50, seed=5)
        g = with_periphery(core, 50_000, seed=6)
        r = lazymc(g, LazyMCConfig(max_seconds=180))
        assert not r.timed_out
        assert r.omega == 50
        # Laziness: only a vanishing fraction of neighborhoods built.
        built = (r.counters.neighborhoods_built_hash
                 + r.counters.neighborhoods_built_sorted)
        assert built < g.n * 0.01

    def test_coreness_at_scale(self):
        g = gnp_random(50_000, 0.0001, seed=7)
        core = coreness(g)
        assert len(core) == g.n
        assert core.min() >= 0
        assert int(core.max()) <= int(g.degrees.max())
