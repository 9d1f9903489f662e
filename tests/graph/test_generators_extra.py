"""Edge-case tests for the newer generators (periphery, social, bitops)."""

import numpy as np
import pytest

from repro.errors import GraphConstructionError
from repro.graph import coreness, from_edges
from repro.graph import generators as gen
from tests.conftest import brute_force_max_clique


class TestWithPeriphery:
    def test_adds_exactly_extra_vertices(self):
        core = gen.gnp_random(50, 0.2, seed=1)
        g = gen.with_periphery(core, 200, seed=2)
        assert g.n == 250
        assert g.m >= core.m + 200  # at least one tree edge per new vertex

    def test_core_subgraph_untouched(self):
        core = gen.gnp_random(40, 0.3, seed=3)
        g = gen.with_periphery(core, 100, seed=4)
        edges = g.edge_array()
        inside = edges[(edges < 40).all(axis=1)]
        assert np.array_equal(inside, core.edge_array())

    def test_periphery_low_coreness(self):
        core = gen.gnp_random(30, 0.5, seed=5)
        g = gen.with_periphery(core, 300, attach_prob=0.2, seed=6)
        c = coreness(g)
        assert c[30:].max() <= 2

    def test_pure_tree_periphery_no_triangles(self):
        core = gen.bipartite_random(20, 20, 0.4, seed=7)
        g = gen.with_periphery(core, 200, attach_prob=0.0, seed=8)
        assert len(brute_force_max_clique(
            from_edges(g.n, g.edge_array()))) == 2 if g.m else True

    def test_zero_extra(self):
        core = gen.gnp_random(10, 0.3, seed=9)
        assert gen.with_periphery(core, 0, seed=10).n == 10


class TestSocialNetwork:
    def test_planted_clique_defines_omega(self):
        g = gen.social_network(300, 3, 0.5, 0.02, 9, seed=11)
        assert len(brute_force_max_clique(
            from_edges(g.n, g.edge_array()))) >= 9

    def test_deterministic(self):
        a = gen.social_network(100, 3, 0.5, 0.03, 6, seed=12)
        b = gen.social_network(100, 3, 0.5, 0.03, 6, seed=12)
        assert a == b


class TestConcentratedCliques:
    def test_density_confined_to_region(self):
        g = gen.concentrated_cliques(200, 50, 20, (5, 9), seed=13)
        assert g.n == 200
        # No edges outside the region.
        for v in range(50, 200):
            assert g.degree(v) == 0

    def test_region_validation(self):
        with pytest.raises(GraphConstructionError):
            gen.concentrated_cliques(100, 5, 3, (6, 8), seed=1)  # region < hi
        with pytest.raises(GraphConstructionError):
            gen.concentrated_cliques(10, 50, 3, (4, 6), seed=1)  # region > n


class TestBAValidation:
    def test_bad_m(self):
        with pytest.raises(GraphConstructionError):
            gen.barabasi_albert(5, 0, seed=1)
        with pytest.raises(GraphConstructionError):
            gen.barabasi_albert(5, 5, seed=1)

    def test_powerlaw_bad_m(self):
        with pytest.raises(GraphConstructionError):
            gen.powerlaw_cluster(5, 5, 0.5, seed=1)

    def test_gnp_bad_p(self):
        with pytest.raises(GraphConstructionError):
            gen.gnp_random(5, 1.5, seed=1)

    def test_gnp_tiny_p_has_no_edges(self):
        # Geometric gaps near the int64 maximum once overflowed their
        # running sum, and the skip loop never ended.
        for p in (5e-324, 1e-300, 1e-30):
            assert gen.gnp_random(3000, p, seed=2).m == 0

    def test_planted_too_big(self):
        with pytest.raises(GraphConstructionError):
            gen.planted_clique(5, 0.1, 6, seed=1)


class TestShapeValidation:
    def test_negative_grid_dimensions(self):
        with pytest.raises(GraphConstructionError):
            gen.grid_road(-2, -3, seed=1)

    def test_negative_star_forest_counts(self):
        with pytest.raises(GraphConstructionError):
            gen.star_forest_plus(3, -1, 0.1, seed=1)

    def test_star_forest_hubs_without_leaves(self):
        # Two hubs, no leaves: noise edges but possibly no hub-pair edge.
        for seed in range(6):
            g = gen.star_forest_plus(2, 0, 0.9, seed=seed)
            assert g.n == 2 and g.m == 1


class TestCamouflagedClique:
    def test_clique_planted_and_found(self):
        from repro import lazymc

        g, members = gen.camouflaged_clique(400, 0.04, 12, seed=21)
        assert g.is_clique(members.tolist())
        r = lazymc(g)
        assert r.omega == 12
        assert r.clique == members.tolist()

    def test_degrees_camouflaged(self):
        """Clique members' degrees sit near the background average, not
        sigma above it — the property that defeats the degree heuristic."""
        g, members = gen.camouflaged_clique(500, 0.06, 14, seed=22)
        member_set = set(members.tolist())
        others = [v for v in range(g.n) if v not in member_set]
        avg_member = float(np.mean([g.degree(int(v)) for v in members]))
        avg_other = float(np.mean([g.degree(v) for v in others]))
        # Without camouflage the gap would be ~= clique_size - 1 = 13.
        assert abs(avg_member - avg_other) < 5.0

    def test_degree_heuristic_misses_it(self):
        """ω̂_d < ω: the adversarial point of the construction."""
        from repro import lazymc

        g, _ = gen.camouflaged_clique(500, 0.06, 14, seed=23)
        r = lazymc(g)
        assert r.omega == 14
        assert r.heuristic_degree_size < 14

    def test_too_big_rejected(self):
        with pytest.raises(GraphConstructionError):
            gen.camouflaged_clique(5, 0.1, 6, seed=1)
