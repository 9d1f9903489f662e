"""Differential checks of the k-core peel and the ordering's stable sort.

The frozen functions below are the numpy-scalar loops that the list-based
peel and the stable argsort replaced.  The peel's ``order`` feeds the
degeneracy order and its ``core`` the (coreness, degree) order, so both
must match exactly, not just as a valid decomposition; the same goes for
the sort's permutation, which fixes the relabelled ids.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.graph import empty_graph
from repro.graph.kcore import _peel
from repro.graph.ordering import _counting_sort_stable
from tests.conftest import random_graph


def _frozen_peel(degrees, indptr, indices, alive=None):
    n = len(degrees)
    if alive is None:
        alive_mask = np.ones(n, dtype=bool)
        deg = degrees.astype(np.int64).copy()
    else:
        alive_mask = alive.copy()
        deg = np.zeros(n, dtype=np.int64)
        for v in np.flatnonzero(alive_mask):
            deg[v] = int(alive_mask[indices[indptr[v]:indptr[v + 1]]].sum())
    nv = int(alive_mask.sum())
    core = np.full(n, -1, dtype=np.int64)
    if nv == 0:
        return core, np.empty(0, dtype=np.int64)
    max_deg = int(deg[alive_mask].max()) if nv else 0
    bin_count = np.zeros(max_deg + 2, dtype=np.int64)
    for v in range(n):
        if alive_mask[v]:
            bin_count[deg[v]] += 1
    bin_start = np.zeros(max_deg + 2, dtype=np.int64)
    np.cumsum(bin_count[:-1], out=bin_start[1:])
    vert = np.empty(nv, dtype=np.int64)
    pos = np.full(n, -1, dtype=np.int64)
    fill = bin_start.copy()
    for v in range(n):
        if alive_mask[v]:
            d = deg[v]
            vert[fill[d]] = v
            pos[v] = fill[d]
            fill[d] += 1
    order = np.empty(nv, dtype=np.int64)
    for i in range(nv):
        v = vert[i]
        dv = deg[v]
        core[v] = dv
        order[i] = v
        for u in indices[indptr[v]:indptr[v + 1]]:
            u = int(u)
            if not alive_mask[u]:
                continue
            if deg[u] > dv and pos[u] > i:
                du = deg[u]
                pu = pos[u]
                pw = bin_start[du]
                if pw <= i:
                    pw = i + 1
                w = vert[pw]
                if u != w:
                    vert[pu], vert[pw] = w, u
                    pos[u], pos[w] = pw, pu
                bin_start[du] = pw + 1
                deg[u] = du - 1
    running = 0
    for i in range(nv):
        v = order[i]
        if core[v] < running:
            core[v] = running
        else:
            running = int(core[v])
    return core, order


def _frozen_counting_sort_stable(keys, items):
    keys = np.asarray(keys, dtype=np.int64)
    if len(items) == 0:
        return items.copy()
    counts = np.bincount(keys, minlength=int(keys.max()) + 1)
    fill = np.zeros(len(counts), dtype=np.int64)
    np.cumsum(counts[:-1], out=fill[1:])
    out = np.empty_like(items)
    for i in range(len(items)):
        k = keys[i]
        out[fill[k]] = items[i]
        fill[k] += 1
    return out


def _assert_same_peel(g, alive=None):
    args = (g.degrees, g.indptr, g.indices)
    core, order = _peel(*args, alive=alive)
    old_core, old_order = _frozen_peel(*args, alive=alive)
    assert core.dtype == old_core.dtype and order.dtype == old_order.dtype
    assert np.array_equal(core, old_core)
    assert np.array_equal(order, old_order)


class TestPeelMatchesFrozen:
    @given(st.integers(0, 40), st.floats(0.0, 0.9), st.integers(0, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_whole_graph(self, n, p, seed):
        _assert_same_peel(random_graph(n, p, seed=seed))

    @given(st.integers(0, 40), st.floats(0.0, 0.9), st.integers(0, 10**6),
           st.floats(0.0, 1.0))
    @settings(max_examples=80, deadline=None)
    def test_alive_mask(self, n, p, seed, keep):
        g = random_graph(n, p, seed=seed)
        alive = np.random.default_rng(seed).random(n) < keep
        _assert_same_peel(g, alive)

    @given(st.integers(0, 40), st.floats(0.0, 0.9), st.integers(0, 10**6),
           st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_degree_bound_mask(self, n, p, seed, lb):
        """The mask ``coreness_degree_filtered`` actually passes."""
        g = random_graph(n, p, seed=seed)
        _assert_same_peel(g, g.degrees >= lb)

    def test_empty_and_isolated(self):
        for n in (0, 1, 5):
            g = empty_graph(n)
            _assert_same_peel(g)
            _assert_same_peel(g, np.zeros(n, dtype=bool))
            _assert_same_peel(g, np.ones(n, dtype=bool))
        # Isolated vertices beside a dense block.
        g = random_graph(30, 0.05, seed=4)
        assert np.any(g.degrees == 0)
        _assert_same_peel(g)
        _assert_same_peel(g, g.degrees > 0)


class TestStableSortMatchesFrozen:
    @given(st.lists(st.integers(0, 12), max_size=80), st.integers(0, 10**6))
    @settings(max_examples=100, deadline=None)
    def test_random_keys(self, keys, seed):
        keys = np.asarray(keys, dtype=np.int64)
        items = np.random.default_rng(seed).permutation(len(keys))
        assert np.array_equal(_counting_sort_stable(keys, items),
                              _frozen_counting_sort_stable(keys, items))

    def test_empty(self):
        items = np.empty(0, dtype=np.int64)
        keys = np.empty(0, dtype=np.int64)
        out = _counting_sort_stable(keys, items)
        assert out.dtype == items.dtype and len(out) == 0
