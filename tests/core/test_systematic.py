"""Unit tests for the systematic search (Alg. 7) in isolation."""

from repro.core import LazyGraph, LazyMCConfig
from repro.core.filtering import FilterFunnel
from repro.core.systematic import systematic_search
from repro.graph import coreness, coreness_degree_order, from_edges, empty_graph
from repro.instrument import Counters
from repro.parallel import Incumbent, SimulatedScheduler
from tests.conftest import brute_force_max_clique, random_graph


def run_systematic(graph, incumbent_clique=None, config=None, threads=1):
    cfg = config or LazyMCConfig()
    core = coreness(graph)
    order = coreness_degree_order(graph, core)
    counters = Counters()
    lazy = LazyGraph(graph, order, core, cfg, counters)
    incumbent = Incumbent(incumbent_clique if incumbent_clique is not None else [0])
    scheduler = SimulatedScheduler(threads, counters)
    funnel = FilterFunnel()
    systematic_search(lazy, incumbent, cfg, scheduler, funnel)
    return incumbent, funnel, scheduler


class TestSystematicSearch:
    def test_finds_maximum_from_trivial_incumbent(self):
        for seed in range(5):
            g = random_graph(20, 0.4, seed=seed + 200)
            incumbent, _, _ = run_systematic(g)
            assert incumbent.size == len(brute_force_max_clique(g))
            assert g.is_clique(incumbent.clique)

    def test_empty_and_edgeless(self):
        inc, _, _ = run_systematic(empty_graph(5))
        assert inc.size == 1  # initial incumbent survives, nothing found
        inc, funnel, _ = run_systematic(empty_graph(0), incumbent_clique=[])
        assert inc.size == 0
        assert funnel.considered == 0

    def test_optimal_incumbent_short_circuits(self):
        """With the optimum already known, only must-levels are visited and
        nothing is searched."""
        g = random_graph(25, 0.35, seed=7)
        omega_clique = brute_force_max_clique(g)
        inc, funnel, _ = run_systematic(g, incumbent_clique=omega_clique)
        assert inc.size == len(omega_clique)
        assert funnel.searched_mc + funnel.searched_kvc == funnel.searched
        # The incumbent never improves past the optimum.
        assert inc.clique == sorted(omega_clique) or inc.size == len(omega_clique)

    def test_seeding_disabled_still_exact(self):
        g = random_graph(20, 0.5, seed=8)
        cfg = LazyMCConfig(seed_per_level=False)
        inc, _, _ = run_systematic(g, config=cfg)
        assert inc.size == len(brute_force_max_clique(g))

    def test_parallel_tasks_recorded(self):
        g = random_graph(30, 0.3, seed=9)
        _, _, sched = run_systematic(g, threads=8)
        assert sched.report.total_work > 0
        assert sched.report.makespan <= sched.report.total_work

    def test_levels_below_incumbent_skipped(self):
        # Star graph: degeneracy 1; incumbent of size 2 (an edge) means no
        # level can host a 3-clique, so nothing is considered.
        g = from_edges(6, [(0, i) for i in range(1, 6)])
        inc, funnel, _ = run_systematic(g, incumbent_clique=[0, 1])
        assert funnel.considered == 0
        assert inc.size == 2
