"""End-to-end exactness and behavior tests for the LazyMC solver."""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro import LazyMCConfig, PrepopulatePolicy, lazymc
from repro.graph import from_edges, complete_graph, empty_graph
from repro.graph import generators as gen
from repro.intersect import EarlyExitConfig
from tests.conftest import brute_force_max_clique, nx_max_clique_size, random_graph


class TestEdgeCases:
    def test_empty_graph(self):
        r = lazymc(empty_graph(0))
        assert r.omega == 0
        assert r.clique == []

    def test_edgeless_graph(self):
        r = lazymc(empty_graph(5))
        assert r.omega == 1

    def test_single_edge(self):
        r = lazymc(from_edges(2, [(0, 1)]))
        assert r.omega == 2
        assert r.clique == [0, 1]

    def test_complete_graph(self):
        r = lazymc(complete_graph(8))
        assert r.omega == 8

    def test_disconnected_components(self):
        # Triangle + K4 in separate components.
        edges = [(0, 1), (1, 2), (0, 2)] + \
                [(u + 3, v + 3) for u in range(4) for v in range(u + 1, 4)]
        r = lazymc(from_edges(7, edges))
        assert r.omega == 4
        assert r.clique == [3, 4, 5, 6]

    def test_star(self):
        r = lazymc(from_edges(10, [(0, i) for i in range(1, 10)]))
        assert r.omega == 2


class TestExactness:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_graphs(self, seed):
        g = random_graph(18, 0.2 + 0.05 * seed, seed=seed * 17 + 3)
        r = lazymc(g)
        assert r.omega == len(brute_force_max_clique(g))
        assert r.verify(g)

    @given(st.integers(4, 16), st.floats(0.1, 0.9), st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_property_exact(self, n, p, seed):
        g = random_graph(n, p, seed=seed)
        r = lazymc(g)
        assert r.omega == len(brute_force_max_clique(g))
        assert r.verify(g)

    @pytest.mark.parametrize("name,graph_fn,expected", [
        ("planted", lambda: gen.planted_clique(120, 0.05, 9, seed=1)[0], 9),
        ("road", lambda: gen.grid_road(8, 8, 0.3, seed=2), 4),
        ("web", lambda: gen.hierarchical_web(2, 2, 10, seed=3), 10),
    ])
    def test_structured_families(self, name, graph_fn, expected):
        g = graph_fn()
        r = lazymc(g)
        assert r.omega == expected
        assert r.verify(g)

    def test_medium_graph_against_networkx(self):
        g = random_graph(60, 0.25, seed=99)
        r = lazymc(g)
        assert r.omega == nx_max_clique_size(g)
        assert r.verify(g)


class TestAblationConfigsExact:
    """Every ablation configuration must stay exact (they change work,
    never answers)."""

    CONFIGS = {
        "prepopulate_all": LazyMCConfig(prepopulate=PrepopulatePolicy.ALL),
        "prepopulate_none": LazyMCConfig(prepopulate=PrepopulatePolicy.NONE),
        "no_early_exit": LazyMCConfig(early_exit=EarlyExitConfig(enabled=False)),
        "no_second_exit": LazyMCConfig(
            early_exit=EarlyExitConfig(enabled=True, second_exit=False)),
        "mc_only": LazyMCConfig(use_kvc=False),
        "kvc_always": LazyMCConfig(density_threshold=0.0),
        "no_filters": LazyMCConfig(filter_rounds=0),
        "one_filter": LazyMCConfig(filter_rounds=1),
        "four_filters": LazyMCConfig(filter_rounds=4),
        "no_seeding": LazyMCConfig(seed_per_level=False),
        "tiny_hash_threshold": LazyMCConfig(hash_degree_threshold=1),
        "threads_4": LazyMCConfig(threads=4),
        "threads_32": LazyMCConfig(threads=32),
    }

    #: Fields no entry above varies, each covered by its own suite.
    EXEMPT = {
        "engine": "engine parity lives in tests/parallel/test_engine.py",
        "processes": "pool sizing lives in tests/parallel/test_engine.py",
        "max_work": "budgets live in tests/core/test_budget_robustness.py",
        "max_seconds": "wall budgets live in tests/test_instrument.py",
    }

    def test_every_field_is_varied(self):
        default = LazyMCConfig()
        varied = {f.name for cfg in self.CONFIGS.values()
                  for f in dataclasses.fields(LazyMCConfig)
                  if getattr(cfg, f.name) != getattr(default, f.name)}
        names = {f.name for f in dataclasses.fields(LazyMCConfig)}
        assert not varied & set(self.EXEMPT), "exempt field is varied"
        assert names - set(self.EXEMPT) <= varied, \
            f"never varied: {sorted(names - set(self.EXEMPT) - varied)}"
        assert set(self.EXEMPT) <= names, "exemption names no field"

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_config_exact(self, name):
        cfg = self.CONFIGS[name]
        for seed in range(4):
            g = random_graph(16, 0.35 + 0.1 * seed, seed=seed * 5 + 1)
            r = lazymc(g, cfg)
            assert r.omega == len(brute_force_max_clique(g)), name
            assert r.verify(g), name
        # The 16-vertex graphs rarely get past the filters; these reach the
        # sub-solver arm each config selects.
        searched = 0
        for seed in range(2):
            g = random_graph(30, 0.6, seed=seed * 7 + 2)
            r = lazymc(g, cfg)
            assert r.omega == nx_max_clique_size(g), name
            assert r.verify(g), name
            searched += r.funnel.searched
        assert searched > 0, name


class TestDeterminism:
    def test_same_seed_same_everything(self):
        g = random_graph(40, 0.3, seed=7)
        r1 = lazymc(g)
        r2 = lazymc(g)
        assert r1.omega == r2.omega
        assert r1.clique == r2.clique
        assert r1.counters.work == r2.counters.work
        assert r1.schedule.makespan == r2.schedule.makespan

    def test_threads_change_work_not_answer(self):
        g = random_graph(40, 0.4, seed=8)
        r1 = lazymc(g, LazyMCConfig(threads=1))
        r8 = lazymc(g, LazyMCConfig(threads=8))
        assert r1.omega == r8.omega


class TestResultMetadata:
    def test_heuristic_sizes_monotone(self):
        g = random_graph(50, 0.3, seed=9)
        r = lazymc(g)
        assert 1 <= r.heuristic_degree_size <= r.heuristic_coreness_size <= r.omega

    def test_gap_nonnegative_and_consistent(self):
        for seed in range(5):
            g = random_graph(30, 0.3, seed=seed + 40)
            r = lazymc(g)
            from repro.graph import coreness

            assert r.degeneracy == coreness(g).max()
            assert r.gap == r.degeneracy + 1 - r.omega
            assert r.gap >= 0

    def test_phase_timers_cover_all_phases(self):
        g = random_graph(30, 0.3, seed=10)
        r = lazymc(g)
        assert set(r.timers.seconds) == {
            "heuristic_degree", "kcore", "sort", "prepopulate",
            "heuristic_coreness", "systematic",
        }

    def test_incumbent_history_increasing(self):
        g = random_graph(40, 0.4, seed=11)
        r = lazymc(g)
        sizes = [s for _, s in r.incumbent_history]
        assert sizes == sorted(sizes)
        assert sizes[-1] == r.omega

    def test_default_path_never_touches_words(self):
        g = random_graph(50, 0.3, seed=9)
        r = lazymc(g)
        assert r.counters.words_scanned == 0


class TestBudget:
    def test_budget_marks_timeout(self):
        g = random_graph(60, 0.5, seed=12)
        r = lazymc(g, LazyMCConfig(max_work=50))
        assert r.timed_out
        assert r.omega >= 1  # best-effort incumbent retained

    def test_unlimited_budget_completes(self):
        g = random_graph(30, 0.4, seed=13)
        r = lazymc(g)
        assert not r.timed_out


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(density_threshold=1.5),
        dict(density_threshold=-0.1),
        dict(filter_rounds=-1),
        dict(threads=0),
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            LazyMCConfig(**kwargs)

    def test_replace_helper(self):
        cfg = LazyMCConfig()
        new = cfg.replace(threads=4, density_threshold=0.3)
        assert new.threads == 4
        assert new.density_threshold == 0.3
        assert cfg.threads == 1  # original untouched


class TestPathologicalInputs:
    def test_single_vertex(self):
        r = lazymc(empty_graph(1))
        assert r.omega == 1
        assert r.clique == [0]

    def test_two_isolated_vertices(self):
        r = lazymc(empty_graph(2))
        assert r.omega == 1

    def test_giant_single_clique(self):
        g = complete_graph(40)
        r = lazymc(g)
        assert r.omega == 40
        assert r.gap == 0
        # The coreness heuristic finds it; nothing is searched.
        assert r.funnel.searched == 0

    def test_two_equal_cliques(self):
        """Ties between two maximum cliques: any one is acceptable."""
        edges = [(u, v) for u in range(6) for v in range(u + 1, 6)]
        edges += [(u + 6, v + 6) for u, v in edges]
        g = from_edges(12, edges)
        r = lazymc(g)
        assert r.omega == 6
        assert r.clique in ([0, 1, 2, 3, 4, 5], [6, 7, 8, 9, 10, 11])

    def test_clique_minus_one_edge(self):
        """K9 minus a single edge: omega = 8 via two overlapping cliques."""
        import itertools

        edges = [e for e in itertools.combinations(range(9), 2) if e != (0, 1)]
        r = lazymc(from_edges(9, edges))
        assert r.omega == 8

    def test_very_sparse_long_path(self):
        g = from_edges(500, [(i, i + 1) for i in range(499)])
        r = lazymc(g)
        assert r.omega == 2
