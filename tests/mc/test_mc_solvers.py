"""Tests for coloring, Bron-Kerbosch and the MC branch-and-bound solver."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import BudgetExceeded
from repro.graph import from_edges, complete_graph
from repro.instrument import Counters, WorkBudget
from repro.mc import (
    color_sort,
    MCSubgraphSolver,
    bron_kerbosch_pivot, enumerate_maximal_cliques,
)
from repro.mc.bronkerbosch import max_clique_by_enumeration
from tests.conftest import brute_force_max_clique, random_graph


def adj_of(graph):
    return [set(map(int, graph.neighbors(v))) for v in range(graph.n)]


def is_clique(adj, vertices):
    vs = list(vertices)
    return all(vs[j] in adj[vs[i]] for i in range(len(vs)) for j in range(i + 1, len(vs)))


class TestColoring:
    def test_proper_coloring(self):
        g = random_graph(15, 0.4, seed=1)
        adj = adj_of(g)
        ordered, classes = color_sort(adj, list(range(15)))
        colors = dict(zip(ordered, classes))
        for v in range(15):
            for u in adj[v]:
                assert colors[u] != colors[v]

    def test_bound_at_least_clique(self):
        for seed in range(5):
            g = random_graph(14, 0.5, seed=seed)
            adj = adj_of(g)
            omega = len(brute_force_max_clique(g))
            _, colors = color_sort(adj, list(range(14)))
            assert colors[-1] >= omega

    def test_color_sort_monotone_and_proper(self):
        g = random_graph(16, 0.5, seed=3)
        adj = adj_of(g)
        ordered, colors = color_sort(adj, list(range(16)))
        assert sorted(ordered) == list(range(16))
        assert colors == sorted(colors)
        # Vertices in the same color class are pairwise non-adjacent.
        by_color = {}
        for v, c in zip(ordered, colors):
            by_color.setdefault(c, []).append(v)
        for cls in by_color.values():
            assert not any(u in adj[v] for i, v in enumerate(cls) for u in cls[i + 1:])

    def test_empty(self):
        assert color_sort([], []) == ([], [])


class TestBronKerbosch:
    def test_triangle(self):
        adj = adj_of(from_edges(3, [(0, 1), (1, 2), (0, 2)]))
        cliques = enumerate_maximal_cliques(adj)
        assert cliques == [[0, 1, 2]]

    def test_path_maximal_edges(self):
        adj = adj_of(from_edges(4, [(0, 1), (1, 2), (2, 3)]))
        cliques = sorted(enumerate_maximal_cliques(adj))
        assert cliques == [[0, 1], [1, 2], [2, 3]]

    def test_counts_match_networkx(self):
        import networkx as nx

        for seed in range(4):
            g = random_graph(14, 0.4, seed=seed + 30)
            ours = {tuple(c) for c in enumerate_maximal_cliques(adj_of(g))}
            theirs = {tuple(sorted(c)) for c in nx.find_cliques(g.to_networkx())}
            assert ours == theirs

    def test_budget_enforced(self):
        g = random_graph(20, 0.6, seed=2)
        c = Counters()
        budget = WorkBudget(max_work=10, counters=c)
        with pytest.raises(BudgetExceeded):
            list(bron_kerbosch_pivot(adj_of(g), counters=c, budget=budget))


class TestMCBranchBound:
    def test_complete_graph(self):
        adj = adj_of(complete_graph(7))
        clique = MCSubgraphSolver().solve(adj)
        assert sorted(clique) == list(range(7))

    def test_empty_graph(self):
        assert MCSubgraphSolver().solve([]) is None
        assert MCSubgraphSolver().solve([set(), set()]) is not None  # single vertex beats lb=0

    def test_lower_bound_respected(self):
        adj = adj_of(from_edges(3, [(0, 1), (1, 2), (0, 2)]))
        assert MCSubgraphSolver().solve(adj, 3) is None
        assert sorted(MCSubgraphSolver().solve(adj, 2)) == [0, 1, 2]

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_oracle(self, seed):
        g = random_graph(16, 0.45, seed=seed * 3 + 1)
        adj = adj_of(g)
        expected = len(brute_force_max_clique(g))
        clique = MCSubgraphSolver().solve(adj)
        assert clique is not None
        assert len(clique) == expected
        assert is_clique(adj, clique)

    @given(st.integers(4, 14), st.floats(0.1, 0.95), st.integers(0, 10**6),
           st.integers(0, 5))
    @settings(max_examples=60, deadline=None)
    def test_property_exact_with_bounds(self, n, p, seed, lb):
        g = random_graph(n, p, seed=seed)
        adj = adj_of(g)
        omega = len(max_clique_by_enumeration(adj)) if g.m else min(1, n)
        result = MCSubgraphSolver().solve(adj, lb)
        if omega > lb:
            assert result is not None
            assert len(result) == omega
            assert is_clique(adj, result)
        else:
            assert result is None

    def test_counters_accumulate(self):
        g = random_graph(15, 0.5, seed=9)
        c = Counters()
        MCSubgraphSolver(counters=c).solve(adj_of(g))
        assert c.branch_nodes > 0
        assert c.colorings > 0

    def test_budget_enforced(self):
        g = random_graph(25, 0.7, seed=4)
        c = Counters()
        budget = WorkBudget(max_work=5, counters=c)
        solver = MCSubgraphSolver(counters=c, budget=budget)
        with pytest.raises(BudgetExceeded):
            solver.solve(adj_of(g))
