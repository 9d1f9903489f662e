"""Tests for k-core decomposition, degeneracy and peeling order."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import (
    from_edges, complete_graph, empty_graph,
    coreness, peeling_order,
)
from repro.graph.kcore import coreness_degree_filtered
from tests.conftest import naive_coreness, random_graph


class TestCoreness:
    def test_empty_graph(self):
        assert list(coreness(empty_graph(3))) == [0, 0, 0]

    def test_no_vertices(self):
        assert len(coreness(empty_graph(0))) == 0

    def test_clique(self):
        assert list(coreness(complete_graph(5))) == [4] * 5

    def test_path(self):
        g = from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert list(coreness(g)) == [1, 1, 1, 1]

    def test_cycle(self):
        g = from_edges(5, [(i, (i + 1) % 5) for i in range(5)])
        assert list(coreness(g)) == [2] * 5

    def test_clique_with_pendant(self):
        # K4 on 0..3 plus pendant 4 attached to 0.
        edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4)]
        g = from_edges(5, edges)
        c = coreness(g)
        assert list(c[:4]) == [3, 3, 3, 3]
        assert c[4] == 1

    def test_star(self):
        g = from_edges(6, [(0, i) for i in range(1, 6)])
        assert list(coreness(g)) == [1] * 6

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_naive_on_random(self, seed):
        g = random_graph(20, 0.3, seed=seed)
        assert list(coreness(g)) == naive_coreness(g)

    @given(st.integers(4, 14), st.floats(0.1, 0.9), st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_property_matches_naive(self, n, p, seed):
        g = random_graph(n, p, seed=seed)
        assert list(coreness(g)) == naive_coreness(g)

    def test_coreness_at_most_degree(self):
        g = random_graph(30, 0.2, seed=3)
        c = coreness(g)
        assert np.all(c <= g.degrees)


class TestPeelingOrder:
    def test_order_covers_all_vertices(self):
        g = random_graph(15, 0.4, seed=1)
        _, order = peeling_order(g)
        assert sorted(order.tolist()) == list(range(15))

    def test_coreness_nondecreasing_along_order(self):
        g = random_graph(25, 0.3, seed=5)
        core, order = peeling_order(g)
        vals = core[order]
        assert np.all(np.diff(vals) >= 0)

    def test_right_neighborhood_bounded_by_coreness(self):
        """The Eppstein et al. guarantee the paper relies on (§IV-F)."""
        for seed in range(5):
            g = random_graph(24, 0.35, seed=seed)
            core, order = peeling_order(g)
            rank = np.empty(g.n, dtype=np.int64)
            rank[order] = np.arange(g.n)
            for v in range(g.n):
                right = [u for u in g.neighbors(v) if rank[u] > rank[v]]
                assert len(right) <= core[v]


def degeneracy(g):
    """d(G), the largest coreness of any vertex."""
    return max(coreness(g), default=0)


class TestDegeneracy:
    def test_values(self):
        assert degeneracy(complete_graph(6)) == 5
        assert degeneracy(empty_graph(4)) == 0
        assert degeneracy(empty_graph(0)) == 0
        g = from_edges(4, [(0, 1), (1, 2), (2, 3)])
        assert degeneracy(g) == 1

    def test_upper_bounds_clique(self):
        """ω(G) <= d(G) + 1 (§II)."""
        from tests.conftest import brute_force_max_clique

        for seed in range(5):
            g = random_graph(14, 0.5, seed=seed)
            assert len(brute_force_max_clique(g)) <= degeneracy(g) + 1


class TestBoundedCoreness:
    """``coreness_degree_filtered``: Alg. 1 line 4 as the solver runs it."""

    def test_zero_bound_equals_plain(self):
        g = random_graph(18, 0.3, seed=2)
        assert np.array_equal(coreness_degree_filtered(g, 0), coreness(g))

    def test_filters_low_degree_vertices(self):
        # K4 plus pendant: with lower bound 3 the pendant must be excluded.
        edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4)]
        g = from_edges(5, edges)
        c = coreness_degree_filtered(g, 3)
        assert list(c[:4]) == [3, 3, 3, 3]
        assert c[4] == -1

    def test_agrees_with_plain_above_bound(self):
        """A vertex of true coreness >= bound keeps its exact value."""
        for seed in range(4):
            g = random_graph(30, 0.25, seed=seed)
            full = coreness(g)
            for lb in (1, 2, 3, 4):
                bounded = coreness_degree_filtered(g, lb)
                assert np.all(bounded[g.degrees < lb] == -1)
                keep = full >= lb
                assert np.array_equal(bounded[keep], full[keep])
                # Never an overestimate.
                assert np.all(bounded <= full)

    def test_unsatisfiable_bound(self):
        g = from_edges(3, [(0, 1), (1, 2)])
        c = coreness_degree_filtered(g, 5)
        assert list(c) == [-1, -1, -1]
