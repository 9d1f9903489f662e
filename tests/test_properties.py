"""Cross-cutting property-based tests tying the subsystems together."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import LazyMCConfig, lazymc
from repro.core import LazyGraph
from repro.graph import (
    complement, coreness, coreness_degree_order, relabel_graph,
)
from repro.graph.kcore import coreness_degree_filtered
from repro.instrument import Counters
from repro.vc import decide_kvc_masks
from tests.conftest import random_graph


graphs_strategy = st.builds(
    random_graph,
    n=st.integers(2, 20),
    p=st.floats(0.05, 0.95),
    seed=st.integers(0, 10**6),
)


class TestLazyGraphEquivalence:
    @given(graphs_strategy)
    @settings(max_examples=40, deadline=None)
    def test_lazy_matches_eager_relabel(self, g):
        """Unfiltered lazy neighborhoods == rows of the eager relabelled
        graph (the two representations the paper trades off in §III-B)."""
        core = coreness(g)
        order = coreness_degree_order(g, core)
        eager = relabel_graph(g, order)
        lazy = LazyGraph(g, order, core, LazyMCConfig(), Counters())
        for v in range(g.n):
            assert list(lazy.sorted_neighborhood(v, min_core=0)) == \
                list(eager.neighbors(v))
            assert set(lazy.hashed_neighborhood(v, min_core=0)) == \
                set(int(u) for u in eager.neighbors(v))

    @given(graphs_strategy, st.integers(0, 6))
    @settings(max_examples=30, deadline=None)
    def test_lazy_filter_is_coreness_cut(self, g, min_core):
        core = coreness(g)
        order = coreness_degree_order(g, core)
        lazy = LazyGraph(g, order, core, LazyMCConfig(), Counters())
        for v in range(g.n):
            members = set(lazy.hashed_neighborhood(v, min_core=min_core))
            full = {int(order.old_to_new[u])
                    for u in g.neighbors(order.relabelled_to_original(v))}
            expected = {u for u in full if lazy.core[u] >= min_core}
            assert members == expected


class TestSolverOracleProperties:
    @given(graphs_strategy)
    @settings(max_examples=30, deadline=None)
    def test_lazymc_matches_networkx(self, g):
        import networkx as nx

        r = lazymc(g)
        clique, _ = nx.max_weight_clique(g.to_networkx(), weight=None)
        assert r.omega == len(clique)
        assert g.is_clique(r.clique)

    @given(graphs_strategy)
    @settings(max_examples=25, deadline=None)
    def test_omega_bounds(self, g):
        """1 <= omega <= d + 1 and the heuristic chain is monotone."""
        r = lazymc(g)
        assert 1 <= r.omega <= r.degeneracy + 1
        assert r.heuristic_degree_size <= r.heuristic_coreness_size <= r.omega

    @given(graphs_strategy)
    @settings(max_examples=20, deadline=None)
    def test_vc_clique_duality(self, g):
        """|MVC(complement)| == n - omega (§II-B): a cover of that size
        exists and none smaller."""
        gc = complement(g)
        masks = [sum(1 << int(u) for u in gc.neighbors(v))
                 for v in range(gc.n)]
        verts = [v for v, m in enumerate(masks) if m]
        k = g.n - lazymc(g).omega
        assert decide_kvc_masks(masks, verts, k) is not None
        assert decide_kvc_masks(masks, verts, k - 1) is None


class TestBoundedCorenessProperties:
    @given(graphs_strategy, st.integers(0, 8))
    @settings(max_examples=40, deadline=None)
    def test_degree_filtered_coreness(self, g, lb):
        full = coreness(g)
        filtered = coreness_degree_filtered(g, lb)
        for v in range(g.n):
            if g.degree(v) < lb:
                assert filtered[v] == -1
            else:
                # Never an overestimate; exact at or above the bound.
                assert filtered[v] <= full[v]
                if full[v] >= lb:
                    assert filtered[v] == full[v]


class TestGeneratorDeterminism:
    @pytest.mark.parametrize("build", [
        lambda s: __import__("repro.graph.generators", fromlist=["x"]).gnp_random(40, 0.2, seed=s),
        lambda s: __import__("repro.graph.generators", fromlist=["x"]).barabasi_albert(40, 3, seed=s),
        lambda s: __import__("repro.graph.generators", fromlist=["x"]).grid_road(6, 6, 0.3, seed=s),
        lambda s: __import__("repro.graph.generators", fromlist=["x"]).overlapping_cliques(40, 10, (4, 8), 0.05, seed=s),
        lambda s: __import__("repro.graph.generators", fromlist=["x"]).social_network(60, 3, 0.5, 0.05, 6, seed=s),
        lambda s: __import__("repro.graph.generators", fromlist=["x"]).citation_layers(50, 4, seed=s),
        lambda s: __import__("repro.graph.generators", fromlist=["x"]).bipartite_random(15, 15, 0.3, seed=s),
    ])
    def test_same_seed_same_graph(self, build):
        assert build(11) == build(11)
        # And a different seed (almost surely) differs.
        assert build(11) != build(12)


class TestDeterministicSolve:
    @given(graphs_strategy, st.sampled_from([1, 3, 16]))
    @settings(max_examples=15, deadline=None)
    def test_full_run_reproducible(self, g, threads):
        cfg = LazyMCConfig(threads=threads)
        a = lazymc(g, cfg)
        b = lazymc(g, cfg)
        assert a.omega == b.omega
        assert a.clique == b.clique
        assert a.counters.as_dict() == b.counters.as_dict()
        assert a.schedule.makespan == b.schedule.makespan
