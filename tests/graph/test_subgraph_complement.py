"""Tests for induced-subgraph masks, induced edge counts and complement."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import (
    from_edges, complete_graph, empty_graph, complement, complement_masks,
    induced_masks,
)
from repro.graph import subgraph
from repro.graph.subgraph import edges_within
from tests.conftest import random_graph


def edge_count(masks):
    return sum(m.bit_count() for m in masks) // 2


class TestInducedSubgraph:
    """The subgraph a candidate list induces, as :func:`induced_masks`
    extracts it."""

    def test_triangle_from_k4_plus(self):
        g = from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)])
        masks = induced_masks([g.neighbors(u) for u in (0, 1, 2)], [0, 1, 2])
        assert masks == [0b110, 0b101, 0b011]
        assert edge_count(masks) == 3

    def test_preserves_input_order(self):
        g = from_edges(4, [(0, 1), (1, 2), (2, 3)])
        masks = induced_masks([g.neighbors(u) for u in (3, 1, 2)], [3, 1, 2])
        # local 0 = old 3, local 1 = old 1, local 2 = old 2
        assert masks[0] >> 2 & 1   # 3-2
        assert masks[1] >> 2 & 1   # 1-2
        assert not masks[0] >> 1 & 1

    def test_matches_networkx(self):
        g = random_graph(20, 0.3, seed=21)
        verts = np.array([1, 4, 7, 10, 13, 16])
        masks = induced_masks([g.neighbors(u) for u in verts], verts)
        nxg = g.to_networkx().subgraph(verts.tolist())
        assert edge_count(masks) == nxg.number_of_edges()


class TestInducedMasks:
    """Bit j of mask i is set iff ``candidates[j]`` is in ``rows[i]``."""

    @staticmethod
    def _reference(graph, verts):
        index = {u: j for j, u in enumerate(verts.tolist())}
        return [sum(1 << index[w] for w in graph.neighbors(u).tolist()
                    if w in index) for u in verts.tolist()]

    @given(st.integers(1, 30), st.floats(0.0, 1.0), st.integers(0, 10**6),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_reference_in_any_order(self, n, p, seed, data):
        g = random_graph(n, p, seed=seed)
        verts = np.asarray(data.draw(st.permutations(range(n)))[
            :data.draw(st.integers(0, n))], dtype=np.int64)
        rows = [g.neighbors(u) for u in verts.tolist()]
        assert induced_masks(rows, verts) == self._reference(g, verts)

    def test_matches_adjacency_sets(self):
        g = random_graph(15, 0.4, seed=8)
        verts = [12, 0, 9, 3, 6]
        masks = induced_masks([g.neighbors(u) for u in verts], verts)
        adj = [{j for j, w in enumerate(verts) if g.has_edge(u, w)}
               for u in verts]
        assert masks == [sum(1 << j for j in s) for s in adj]

    def test_blocks_of_rows(self, monkeypatch):
        """A block cap far below k x k gives the same masks, row block by
        row block (here 2 rows per block, the last one short)."""
        g = random_graph(40, 0.5, seed=4)
        verts = np.arange(39, 0, -2, dtype=np.int64)
        rows = [g.neighbors(u) for u in verts.tolist()]
        want = induced_masks(rows, verts)
        monkeypatch.setattr(subgraph, "_MASK_BLOCK_BYTES", 2 * len(verts))
        assert induced_masks(rows, verts) == want == self._reference(g, verts)

    @given(st.lists(st.tuples(st.integers(1, 40), st.floats(0.0, 1.0),
                              st.integers(0, 10**6), st.randoms()),
                    min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_repeated_calls_share_one_table(self, draws):
        """Graphs of growing and shrinking id ranges, candidates in any
        order, one thread's table: every call matches the reference and
        leaves every slot of the table free again."""
        for n, p, seed, rnd in draws:
            g = random_graph(n, p, seed=seed)
            picked = rnd.sample(range(n), rnd.randint(0, n))
            verts = np.asarray(picked, dtype=np.int64)
            rows = [g.neighbors(u) for u in picked]
            assert induced_masks(rows, picked) == self._reference(g, verts)
            assert (subgraph._scratch.table == -1).all()

    def test_table_reset_after_error(self):
        """A failing call still frees its candidate slots."""
        with pytest.raises(TypeError):  # a row of non-integer ids
            induced_masks([np.array([0.5])], np.array([0, 1]))
        assert (subgraph._scratch.table == -1).all()

    def test_empty(self):
        assert induced_masks([], np.empty(0, dtype=np.int64)) == []
        assert induced_masks([np.empty(0, dtype=np.int64)],
                             np.array([5])) == [0]


class TestDensity:
    def test_edges_within(self):
        g = from_edges(5, [(0, 1), (1, 2), (0, 2), (3, 4)])
        assert edges_within(g, np.array([0, 1, 2])) == 3
        assert edges_within(g, np.array([0, 3, 4])) == 1
        assert edges_within(g, np.array([1, 3])) == 0


class TestComplement:
    def test_complement_of_empty_is_complete(self):
        assert complement(empty_graph(5)) == complete_graph(5)

    def test_complement_of_complete_is_empty(self):
        assert complement(complete_graph(5)) == empty_graph(5)

    def test_involution(self):
        g = random_graph(12, 0.4, seed=17)
        assert complement(complement(g)) == g

    @given(st.integers(2, 12), st.floats(0.0, 1.0), st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_edge_counts_complementary(self, n, p, seed):
        g = random_graph(n, p, seed=seed)
        gc = complement(g)
        assert g.m + gc.m == n * (n - 1) // 2

    def test_complement_masks(self):
        # Edge 0-1 and an isolated 2, as one neighbourhood mask per vertex.
        assert complement_masks([0b010, 0b001, 0b000]) == [0b100, 0b100,
                                                           0b011]
        assert complement_masks([]) == []

    @given(st.integers(1, 12), st.floats(0.0, 1.0), st.integers(0, 10**6))
    @settings(max_examples=30, deadline=None)
    def test_complement_masks_match_csr(self, n, p, seed):
        g = random_graph(n, p, seed=seed)
        verts = np.arange(n)
        masks = induced_masks([g.neighbors(v) for v in verts], verts)
        gc = complement(g)
        assert complement_masks(masks) == induced_masks(
            [gc.neighbors(v) for v in verts], verts)
