"""Tests for the dataset registry: determinism, family properties, and the
qualitative Table I profile of each analogue."""

import pytest

from repro.errors import DatasetError
from repro.datasets import REGISTRY, load, names, spec
from repro.graph import coreness


class TestRegistryBasics:
    def test_has_28_datasets(self):
        """One analogue per paper graph (Tables I/II have 28 rows)."""
        assert len(names()) == 28

    def test_unknown_name_raises(self):
        with pytest.raises(DatasetError):
            spec("nope")

    def test_load_caches(self):
        g1 = load("CAroad")
        g2 = load("CAroad")
        assert g1 is g2

    def test_specs_have_paper_numbers(self):
        for name in names():
            p = spec(name).paper
            assert p.omega >= 2 or name == "yahoo"
            assert p.gap == p.degeneracy + 1 - p.omega

    def test_deterministic_build(self):
        s = spec("dblp")
        assert s.build() == s.build()

    def test_families_cover_expected(self):
        families = {s.family for s in REGISTRY.values()}
        assert families == {"road", "social", "web", "sparse", "bipartite",
                            "citation", "bio"}


class TestAnaloguesAreScaledDown:
    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_laptop_scale(self, name):
        g = load(name)
        assert 0 < g.n <= 25_000
        assert g.m <= 80_000

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_simple_graph_invariants(self, name):
        g = load(name)
        assert g.degrees.sum() == 2 * g.m


class TestQualitativeProfiles:
    """The structural property each family exists to exhibit."""

    def test_road_gap_zero_small_degeneracy(self):
        for name in ("USAroad", "CAroad"):
            g = load(name)
            assert coreness(g).max() == 3

    def test_bipartite_no_triangles(self):
        from repro import lazymc

        g = load("yahoo")
        r = lazymc(g)
        assert r.omega == 2
        assert r.gap > 10  # the coreness bound is maximally misleading

    def test_web_family_gap_zero(self):
        from repro import lazymc

        for name in ("uk-union", "dimacs", "hudong", "dblp", "it",
                     "hollywood", "uk"):
            r = lazymc(load(name))
            assert r.gap == 0, name
            # The coreness heuristic finds the optimum (bold in Table I).
            assert r.heuristic_coreness_size == r.omega, name

    def test_social_family_positive_gap_heuristic_undershoot(self):
        from repro import lazymc

        for name in ("sinaweibo", "soflow", "flickr", "orkut", "higgs",
                     "topcats"):
            r = lazymc(load(name))
            assert r.gap > 0, name
            # Degree heuristic undershoots: systematic search has work.
            assert r.heuristic_degree_size < r.omega, name

    def test_bio_family_dense_large_gap(self):
        for name in ("WormNet", "HS-CX", "mouse", "human-1", "human-2"):
            g = load(name)
            assert g.density > 0.15, name
        from repro import lazymc

        r = lazymc(load("WormNet"))
        assert r.gap > 5

    def test_sparse_family(self):
        from repro import lazymc

        g = load("friendster")
        r = lazymc(g)
        assert r.omega <= 4
        assert r.gap > 0


class TestExpectedOmega:
    """Regression anchor: every analogue solves to its recorded ω."""

    def test_registry_covers_all(self):
        from repro.datasets import EXPECTED_OMEGA

        assert set(EXPECTED_OMEGA) == set(REGISTRY)

    @pytest.mark.parametrize("name", sorted(REGISTRY))
    def test_lazymc_hits_expected(self, name):
        from repro import LazyMCConfig, lazymc
        from repro.datasets import EXPECTED_OMEGA

        r = lazymc(load(name), LazyMCConfig(max_seconds=120))
        assert not r.timed_out, name
        assert r.omega == EXPECTED_OMEGA[name], name
        assert r.verify(load(name))

    @pytest.mark.parametrize("name", ["talk", "hudong", "yahoo", "HS-CX",
                                      "dblp", "pokec"])
    def test_baseline_cross_check(self, name):
        """A second, independently implemented solver agrees (subset: the
        full five-way agreement runs in the Table II bench)."""
        from repro.baselines import mcbrb
        from repro.datasets import EXPECTED_OMEGA

        r = mcbrb(load(name), max_seconds=120)
        assert not r.timed_out
        assert r.omega == EXPECTED_OMEGA[name]
