"""Differential checks of the k-core peels and the ordering's stable sort.

The frozen functions below are the numpy-scalar loops that the list-based
peel and the stable argsort replaced.  The bucket peel's ``order`` feeds
the baselines' degeneracy order, so it must match exactly, not just as a
valid decomposition.  The degree-filtered coreness, now a level-by-level
numpy peel over S0's rows, must give the frozen peel's values byte for
byte, and the (coreness, degree) order must give every S0 vertex the
relabelled id the frozen whole-graph sort gave it.
"""

import time
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.graph import coreness, empty_graph, from_edges, kcore, peeling_order
from repro.graph.kcore import (
    MAX_ROUNDS, _induced_rows, _level_peel, _peel, coreness_degree_filtered,
)
from repro.graph.ordering import _counting_sort_stable, coreness_degree_order
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


def _frozen_degree_order(graph, core):
    """The (coreness, degree) order as it stood: both sorts over all ids."""
    ids = np.arange(graph.n, dtype=np.int64)
    by_degree = _frozen_counting_sort_stable(graph.degrees, ids)
    return _frozen_counting_sort_stable(np.asarray(core)[by_degree] + 1,
                                        by_degree)


def _assert_same_peel(g):
    args = (g.degrees, g.indptr, g.indices)
    core, order = _peel(*args)
    old_core, old_order = _frozen_peel(*args)
    assert core.dtype == old_core.dtype and order.dtype == old_order.dtype
    assert np.array_equal(core, old_core)
    assert np.array_equal(order, old_order)


def _assert_same_filtered(g, lb):
    """Coreness of G[S0] and S0's relabelled ids, against the frozen loops."""
    core = coreness_degree_filtered(g, lb)
    old_core, _ = _frozen_peel(g.degrees, g.indptr, g.indices,
                               alive=g.degrees >= lb)
    assert core.dtype == old_core.dtype
    assert np.array_equal(core, old_core)
    s0 = np.flatnonzero(core >= 0)
    old_new_to_old = _frozen_degree_order(g, old_core)
    old_to_new = np.empty(g.n, dtype=np.int64)
    old_to_new[old_new_to_old] = np.arange(g.n)
    order = coreness_degree_order(g, core)
    assert np.array_equal(order.old_to_new[s0], old_to_new[s0])
    # The dropped vertices fill the first ids, in id order.
    dropped = np.flatnonzero(core < 0)
    assert np.array_equal(order.new_to_old[:len(dropped)], dropped)


def _path(n):
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def _cycle_with_tails(cycle, tails, tail_len):
    """A cycle with ``tails`` pendant paths of ``tail_len`` vertices."""
    edges = [(i, (i + 1) % cycle) for i in range(cycle)]
    n = cycle
    for t in range(tails):
        prev = (t * cycle) // tails
        for _ in range(tail_len):
            edges.append((prev, n))
            prev = n
            n += 1
    return from_edges(n, edges)


def _grid(rows, cols):
    edges = [(r * cols + c, r * cols + c + 1)
             for r in range(rows) for c in range(cols - 1)]
    edges += [(r * cols + c, (r + 1) * cols + c)
              for r in range(rows - 1) for c in range(cols)]
    return from_edges(rows * cols, edges)


class TestPeelMatchesFrozen:
    @given(st.integers(0, 40), st.floats(0.0, 0.9), st.integers(0, 10**6))
    @settings(max_examples=80, deadline=None)
    def test_whole_graph(self, n, p, seed):
        g = random_graph(n, p, seed=seed)
        _assert_same_peel(g)
        assert np.array_equal(coreness(g), peeling_order(g)[0])

    @given(st.integers(0, 40), st.floats(0.0, 0.9), st.integers(0, 10**6),
           st.floats(0.0, 1.0))
    @settings(max_examples=80, deadline=None)
    def test_alive_mask(self, n, p, seed, keep):
        """The compaction and the level peel under any vertex mask."""
        g = random_graph(n, p, seed=seed)
        alive = np.random.default_rng(seed).random(n) < keep
        want, _ = _frozen_peel(g.degrees, g.indptr, g.indices, alive=alive)
        ids = np.flatnonzero(alive)
        got = np.full(n, -1, dtype=np.int64)
        got[ids] = _level_peel(*_induced_rows(g.indptr, g.indices, ids))
        assert np.array_equal(got, want)

    @given(st.integers(0, 40), st.floats(0.0, 0.9), st.integers(0, 10**6),
           st.integers(0, 8))
    @settings(max_examples=60, deadline=None)
    def test_degree_bound_mask(self, n, p, seed, lb):
        """The mask ``coreness_degree_filtered`` applies, lb from 0 to 8."""
        _assert_same_filtered(random_graph(n, p, seed=seed), lb)

    def test_empty_and_isolated(self):
        for n in (0, 1, 5):
            g = empty_graph(n)
            _assert_same_peel(g)
            for lb in (0, 1, 2):
                _assert_same_filtered(g, lb)
        # Isolated vertices beside a dense block.
        g = random_graph(30, 0.05, seed=4)
        assert np.any(g.degrees == 0)
        _assert_same_peel(g)
        for lb in (0, 1, 2):
            _assert_same_filtered(g, lb)


class TestRoundCap:
    """Graphs that need more than :data:`MAX_ROUNDS` level rounds, so the
    bucket peel finishes the live rest."""

    GRAPHS = {
        "path": lambda: _path(400),
        "cycle_with_tails": lambda: _cycle_with_tails(60, 5, 150),
        "grid": lambda: _grid(70, 90),
    }

    def test_capped_graphs_match_frozen(self):
        for name, make in self.GRAPHS.items():
            g = make()
            with mock.patch.object(kcore, "_peel", wraps=kcore._peel) as tail:
                core = coreness(g)
            assert tail.called, f"{name} finished within {MAX_ROUNDS} rounds"
            assert np.array_equal(core, peeling_order(g)[0])
            for lb in (0, 2, 3):
                _assert_same_filtered(g, lb)

    def test_linear_on_a_long_path(self):
        """At most 3x the bucket peel on a 200k path: the cap keeps the
        level rounds from running n / 2 times."""
        g = _path(200_000)
        best_level = best_bucket = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            coreness_degree_filtered(g, 1)
            t1 = time.perf_counter()
            peeling_order(g)
            t2 = time.perf_counter()
            best_level = min(best_level, t1 - t0)
            best_bucket = min(best_bucket, t2 - t1)
        assert best_level <= 3 * best_bucket


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
