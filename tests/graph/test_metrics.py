"""Tests for structural graph metrics."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import complete_graph, empty_graph, from_edges
from repro.graph.metrics import (
    degree_assortativity, global_clustering, profile,
    triangle_count,
)
from tests.conftest import random_graph


def nx_triangles(graph):
    import networkx as nx

    return sum(nx.triangles(graph.to_networkx()).values()) // 3


class TestTriangles:
    def test_known_counts(self):
        assert triangle_count(complete_graph(3)) == 1
        assert triangle_count(complete_graph(5)) == 10
        assert triangle_count(empty_graph(5)) == 0
        assert triangle_count(from_edges(4, [(0, 1), (1, 2), (2, 3)])) == 0
        # Two triangles sharing an edge.
        g = from_edges(4, [(0, 1), (1, 2), (0, 2), (1, 3), (2, 3)])
        assert triangle_count(g) == 2

    @given(st.integers(2, 16), st.floats(0.1, 0.9), st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_matches_networkx(self, n, p, seed):
        g = random_graph(n, p, seed=seed)
        assert triangle_count(g) == nx_triangles(g)


class TestClustering:
    def test_transitivity_of_clique_is_one(self):
        assert global_clustering(complete_graph(6)) == pytest.approx(1.0)

    def test_transitivity_of_star_is_zero(self):
        g = from_edges(5, [(0, i) for i in range(1, 5)])
        assert global_clustering(g) == 0.0

    def test_matches_networkx_transitivity(self):
        import networkx as nx

        for seed in range(4):
            g = random_graph(20, 0.3, seed=seed + 1000)
            assert global_clustering(g) == pytest.approx(
                nx.transitivity(g.to_networkx()))


class TestDegreeStats:
    def test_assortativity_range(self):
        for seed in range(4):
            g = random_graph(25, 0.3, seed=seed + 1100)
            r = degree_assortativity(g)
            assert -1.0 <= r <= 1.0

    def test_star_is_disassortative(self):
        g = from_edges(10, [(0, i) for i in range(1, 10)])
        assert degree_assortativity(g) < 0 or g.m < 2

    def test_empty(self):
        assert degree_assortativity(empty_graph(3)) == 0.0


class TestProfile:
    def test_profile_fields(self):
        g = complete_graph(5)
        p = profile(g)
        assert p.n == 5 and p.m == 10
        assert p.density == 1.0
        assert p.degeneracy == 4
        assert p.triangles == 10
        assert "density=1.0000" in str(p)

    def test_family_fidelity_examples(self):
        """The analogue families show their expected structural signatures."""
        from repro.datasets import load

        bio = profile(load("HS-CX"))
        road = profile(load("CAroad"))
        assert bio.density > 0.2 > road.density
        assert bio.transitivity > road.transitivity
        assert road.degeneracy == 3
