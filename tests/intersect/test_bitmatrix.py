"""Packed adjacency (BitMatrix) and the shared vectorized popcount."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.intersect import BitMatrix, popcount_words
from repro.intersect.bitmatrix import popcount_words_lut


def _random_adj(n: int, p: float, seed: int) -> list[set]:
    import random

    rng = random.Random(seed)
    adj: list[set] = [set() for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u].add(v)
                adj[v].add(u)
    return adj


class TestPopcount:
    @given(st.lists(st.integers(0, 2**64 - 1), max_size=100))
    @settings(max_examples=60, deadline=None)
    def test_matches_python_bit_count(self, values):
        words = np.array(values, dtype=np.uint64)
        expected = sum(v.bit_count() for v in values)
        assert popcount_words(words) == expected
        assert popcount_words_lut(words) == expected

    def test_empty(self):
        assert popcount_words(np.array([], dtype=np.uint64)) == 0
        assert popcount_words_lut(np.array([], dtype=np.uint64)) == 0

    def test_lut_on_noncontiguous_slice(self):
        words = np.arange(64, dtype=np.uint64)[::2]
        assert popcount_words_lut(words) == \
            sum(int(w).bit_count() for w in words)


class TestBitMatrix:
    @given(n=st.integers(0, 80), p=st.floats(0, 1), seed=st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_from_sets_roundtrip(self, n, p, seed):
        adj = _random_adj(n, p, seed)
        mat = BitMatrix.from_sets(adj)
        assert mat.to_sets() == adj

    def test_row_int_matches_members(self):
        adj = _random_adj(70, 0.4, 3)
        mat = BitMatrix.from_sets(adj)
        for v in range(mat.n):
            row = mat.row_int(v)
            members = set(map(int, mat.row_members(v)))
            assert members == {i for i in range(mat.n) if row >> i & 1}
            assert members == adj[v]

    def test_row_int_cached(self):
        mat = BitMatrix.from_sets(_random_adj(10, 0.5, 1))
        assert mat.row_int(3) is mat.row_int(3)

    def test_has_edge_and_degrees(self):
        adj = _random_adj(65, 0.3, 5)  # straddles the 64-bit word boundary
        mat = BitMatrix.from_sets(adj)
        for u in range(mat.n):
            for v in range(mat.n):
                assert mat.has_edge(u, v) == (v in adj[u])
        assert list(mat.degrees()) == [len(s) for s in adj]
        assert mat.m2 == sum(len(s) for s in adj)

    def test_set_row_drops_self_loop(self):
        mat = BitMatrix(4)
        mat.set_row(1, np.array([0, 1, 3]))
        assert not mat.has_edge(1, 1)
        assert mat.row_int(1) == (1 << 0) | (1 << 3)

    def test_set_row_rejects_out_of_range(self):
        mat = BitMatrix(4)
        with pytest.raises(ValueError):
            mat.set_row(0, np.array([4]))
        with pytest.raises(ValueError):
            mat.set_row(0, np.array([-1]))

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            BitMatrix(-1)

    def test_density_bounds(self):
        assert BitMatrix(0).density() == 1.0
        assert BitMatrix(1).density() == 1.0
        full = BitMatrix.from_sets(
            [set(range(5)) - {v} for v in range(5)])
        assert full.density() == 1.0
