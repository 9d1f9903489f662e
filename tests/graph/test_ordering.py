"""Tests for vertex orderings and relabelling (§IV-F)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.graph import (
    complete_graph,
    coreness, coreness_degree_order, peeling_order, relabel_graph,
    VertexOrder,
)
from repro.graph.ordering import _counting_sort_stable
from tests.conftest import random_graph


class TestVertexOrder:
    def test_roundtrip(self):
        order = VertexOrder.from_sequence(np.array([2, 0, 1]))
        assert order.relabelled_to_original(0) == 2
        assert order.original_to_relabelled(2) == 0
        for v in range(3):
            assert order.original_to_relabelled(order.relabelled_to_original(v)) == v

    def test_permute_values(self):
        order = VertexOrder.from_sequence(np.array([2, 0, 1]))
        vals = np.array([10, 11, 12])
        assert list(order.permute_values(vals)) == [12, 10, 11]

    def test_n(self):
        assert VertexOrder.from_sequence(np.arange(7)).n == 7


class TestCountingSort:
    def test_stable(self):
        keys = np.array([1, 0, 1, 0, 2, 1])
        items = np.array([10, 11, 12, 13, 14, 15])
        out = _counting_sort_stable(keys, items)
        assert list(out) == [11, 13, 10, 12, 15, 14]

    def test_empty(self):
        assert len(_counting_sort_stable(np.array([], dtype=int), np.array([], dtype=int))) == 0

    @given(st.lists(st.integers(0, 9), max_size=60))
    @settings(max_examples=30, deadline=None)
    def test_matches_argsort_stable(self, keys):
        keys = np.asarray(keys, dtype=np.int64)
        items = np.arange(len(keys))
        out = _counting_sort_stable(keys, items)
        expected = items[np.argsort(keys, kind="stable")]
        assert np.array_equal(out, expected)


class TestDegeneracyOrder:
    """A :class:`VertexOrder` built from the Matula-Beck peeling sequence.

    ``tests/graph/test_kcore.py`` checks the sequence itself; these check
    the order and relabelled graph the ordering module makes of it.
    """

    def test_is_permutation(self):
        g = random_graph(20, 0.3, seed=9)
        _, peel = peeling_order(g)
        order = VertexOrder.from_sequence(peel)
        assert sorted(order.new_to_old.tolist()) == list(range(20))
        assert np.array_equal(order.new_to_old[order.old_to_new],
                              np.arange(20))

    def test_right_neighborhoods_bounded(self):
        for seed in range(4):
            g = random_graph(22, 0.4, seed=seed)
            core, peel = peeling_order(g)
            order = VertexOrder.from_sequence(peel)
            h = relabel_graph(g, order)
            for v_new in range(h.n):
                right = h.neighbors(v_new)
                right = right[right > v_new]
                assert len(right) <= core[order.relabelled_to_original(v_new)]


class TestCorenessDegreeOrder:
    def test_sorted_by_coreness_then_degree(self):
        g = random_graph(25, 0.3, seed=4)
        core = coreness(g)
        order = coreness_degree_order(g, core)
        seq = order.new_to_old
        keys = [(int(core[v]), int(g.degree(int(v)))) for v in seq]
        assert keys == sorted(keys)

    def test_handles_filtered_vertices(self):
        """Vertices with coreness -1 sort first and stay a permutation."""
        g = random_graph(15, 0.3, seed=6)
        core = coreness(g).copy()
        core[:5] = -1
        order = coreness_degree_order(g, core)
        assert sorted(order.new_to_old.tolist()) == list(range(15))
        # All -1 vertices precede all others.
        flags = [core[v] < 0 for v in order.new_to_old]
        assert flags == sorted(flags, reverse=True)

    def test_right_neighbors_have_geq_coreness(self):
        """Right-neighbors never have smaller coreness.

        Unlike the strict peeling order, the (coreness, degree) sort only
        guarantees |N+(v)| <= c(v) up to ties; the invariant that *is*
        exact — and that the lazy filter relies on — is that every
        right-neighbor sits at the same or a higher coreness level.
        """
        for seed in range(5):
            g = random_graph(24, 0.35, seed=seed + 10)
            core = coreness(g)
            order = coreness_degree_order(g, core)
            for v_old in range(g.n):
                v_new = order.original_to_relabelled(v_old)
                for u in g.neighbors(v_old):
                    if order.original_to_relabelled(int(u)) > v_new:
                        assert core[int(u)] >= core[v_old]


class TestRelabelGraph:
    def test_preserves_structure(self):
        g = random_graph(15, 0.4, seed=11)
        core = coreness(g)
        order = coreness_degree_order(g, core)
        h = relabel_graph(g, order)
        assert h.n == g.n
        assert h.m == g.m
        for u_new in range(h.n):
            for v_new in h.neighbors(u_new):
                u_old = order.relabelled_to_original(u_new)
                v_old = order.relabelled_to_original(int(v_new))
                assert g.has_edge(u_old, v_old)

    def test_identity_order(self):
        g = random_graph(10, 0.5, seed=2)
        ident = VertexOrder.from_sequence(np.arange(10))
        assert relabel_graph(g, ident) == g

    def test_clique_stays_clique(self):
        g = complete_graph(6)
        order = VertexOrder.from_sequence(np.array([5, 3, 1, 0, 2, 4]))
        assert relabel_graph(g, order) == g
