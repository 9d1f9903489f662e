"""Tests for kernelization, path/cycle VC, branch-and-bound k-VC, and the
clique-via-VC reduction."""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import from_edges, complete_graph, complement
from repro.graph.subgraph import induced_adjacency_sets
from repro.instrument import Counters
from repro.vc import (
    kernelize, vc_paths_and_cycles,
    decide_kvc, minimum_vertex_cover, max_clique_via_vc, clique_exists_via_vc,
    max_clique_via_vc_masks,
)
from repro.vc import clique_via_vc
from repro.vc.kernelization import adjacency_masks
from tests.conftest import brute_force_max_clique, random_graph


def adj_of(graph):
    return induced_adjacency_sets(graph, np.arange(graph.n))


def is_cover(adj, cover):
    cs = set(cover)
    return all(v in cs or u in cs for v in range(len(adj)) for u in adj[v])


def brute_min_vc(adj) -> int:
    n = len(adj)
    for k in range(n + 1):
        for subset in itertools.combinations(range(n), k):
            if is_cover(adj, subset):
                return k
    return n


class TestKernelization:
    def test_isolated_vertices_ignored(self):
        kr = kernelize([set(), set(), set()], 0)
        assert kr.feasible
        assert kr.forced == []

    def test_pendant_rule(self):
        # Path 0-1: pendant rule covers with the neighbor.
        adj = adj_of(from_edges(2, [(0, 1)]))
        kr = kernelize(adj, 1)
        assert kr.feasible
        assert len(kr.forced) == 1
        assert is_cover(adj, kr.forced)

    def test_buss_rule(self):
        # Star center has degree 5 > k=1, must be forced.
        adj = adj_of(from_edges(6, [(0, i) for i in range(1, 6)]))
        kr = kernelize(adj, 1)
        assert kr.feasible
        assert 0 in kr.forced
        assert is_cover(adj, kr.forced)

    def test_triangle_rule(self):
        adj = adj_of(from_edges(3, [(0, 1), (1, 2), (0, 2)]))
        kr = kernelize(adj, 2)
        assert kr.feasible
        assert len(set(kr.forced)) == 2
        assert is_cover(adj, kr.forced)

    def test_infeasible_negative_budget(self):
        adj = adj_of(complete_graph(5))
        assert not kernelize(adj, 0).feasible

    def test_buss_size_bound_detects_infeasible(self):
        # Large matching: min VC = 20 but k = 3; kernel keeps degree-1 rule
        # firing, so feasibility fails via budget.
        edges = [(2 * i, 2 * i + 1) for i in range(20)]
        adj = adj_of(from_edges(40, edges))
        assert not kernelize(adj, 3).feasible

    def test_buss_size_bound_edge_count_is_tight(self):
        # Cycles leave every rule idle at k = 2: C4 has k^2 edges and
        # stays, C5 has k^2 + 1 and is refuted by the size bound alone.
        c4 = adj_of(from_edges(4, [(i, (i + 1) % 4) for i in range(4)]))
        c5 = adj_of(from_edges(5, [(i, (i + 1) % 5) for i in range(5)]))
        kr = kernelize(c4, 2)
        assert kr.feasible and kr.adj == c4 and kr.forced == []
        assert not kernelize(c5, 2).feasible

    def test_input_not_mutated(self):
        adj = adj_of(from_edges(3, [(0, 1), (1, 2)]))
        before = [set(s) for s in adj]
        kernelize(adj, 2)
        assert adj == before


class TestPathsCycles:
    def test_path_sizes(self):
        for p in range(2, 9):
            adj = adj_of(from_edges(p, [(i, i + 1) for i in range(p - 1)]))
            cover = vc_paths_and_cycles(adj)
            assert is_cover(adj, cover)
            assert len(cover) == p // 2

    def test_cycle_sizes(self):
        for c in range(3, 10):
            adj = adj_of(from_edges(c, [(i, (i + 1) % c) for i in range(c)]))
            cover = vc_paths_and_cycles(adj)
            assert is_cover(adj, cover)
            assert len(cover) == (c + 1) // 2

    def test_mixed_components(self):
        # Path of 3 (vc 1) + cycle of 5 (vc 3) + isolated vertex.
        edges = [(0, 1), (1, 2)] + [(3 + i, 3 + (i + 1) % 5) for i in range(5)]
        adj = adj_of(from_edges(9, edges))
        cover = vc_paths_and_cycles(adj)
        assert len(cover) == 4
        assert is_cover(adj, cover)

    def test_cycle_cover_is_order_free(self):
        """Each cycle is walked from its smallest id towards that vertex's
        smallest neighbour, whatever order the sets iterate in."""
        order = [0, 1, 2, 3, 4, 5, 6, 7, 8, 10, 9]
        edges = [(order[i], order[(i + 1) % 11]) for i in range(11)]
        adj = [set() for _ in range(11)]
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        backwards = [set() for _ in range(11)]
        for u, v in reversed(edges):
            backwards[u].add(v)
            backwards[v].add(u)
        # Vertex 0's neighbours 1 and 9 share a hash slot, so the two
        # sets iterate in opposite orders.
        assert backwards == adj and list(backwards[0]) != list(adj[0])
        cover = vc_paths_and_cycles(adj)
        assert vc_paths_and_cycles(backwards) == cover
        assert is_cover(adj, cover) and len(cover) == 6

    def test_rejects_high_degree(self):
        from repro.errors import SolverError

        adj = adj_of(from_edges(4, [(0, 1), (0, 2), (0, 3)]))
        with pytest.raises(SolverError):
            vc_paths_and_cycles(adj)


class TestDecideKVC:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force(self, seed):
        g = random_graph(10, 0.4, seed=seed + 5)
        adj = adj_of(g)
        opt = brute_min_vc(adj)
        for k in range(g.n + 1):
            cover = decide_kvc(adj, k)
            if k >= opt:
                assert cover is not None
                assert len(cover) <= k
                assert is_cover(adj, cover)
            else:
                assert cover is None

    def test_negative_k(self):
        assert decide_kvc([{1}, {0}], -1) is None

    def test_counts_kernel_reductions(self):
        c = Counters()
        adj = adj_of(from_edges(4, [(0, 1), (1, 2), (2, 3)]))
        decide_kvc(adj, 2, counters=c)
        assert c.kernel_reductions > 0


class TestMinimumVertexCover:
    @given(st.integers(2, 10), st.floats(0.1, 0.9), st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_property_optimal(self, n, p, seed):
        g = random_graph(n, p, seed=seed)
        adj = adj_of(g)
        cover = minimum_vertex_cover(adj)
        assert is_cover(adj, cover)
        assert len(cover) == brute_min_vc(adj)

    def test_empty(self):
        assert minimum_vertex_cover([]) == []
        assert minimum_vertex_cover([set(), set()]) == []


class TestCliqueViaVC:
    def test_duality_on_random(self):
        """|MVC(complement)| = n - omega (König-free sanity, §II-B)."""
        for seed in range(5):
            g = random_graph(12, 0.5, seed=seed + 11)
            omega = len(brute_force_max_clique(g))
            mvc = minimum_vertex_cover(adj_of(complement(g)))
            assert len(mvc) == g.n - omega

    def test_exists_probe(self):
        adj = adj_of(complete_graph(5))
        clique = clique_exists_via_vc(adj, 5)
        assert clique is not None and len(clique) >= 5
        assert clique_exists_via_vc(adj, 6) is None
        assert clique_exists_via_vc(adj, 0) == []

    @pytest.mark.parametrize("seed", range(8))
    def test_max_clique_matches_oracle(self, seed):
        g = random_graph(13, 0.6, seed=seed * 7 + 2)
        adj = adj_of(g)
        omega = len(brute_force_max_clique(g))
        clique = max_clique_via_vc(adj)
        assert clique is not None
        assert len(clique) == omega
        vs = sorted(clique)
        assert all(vs[j] in adj[vs[i]]
                   for i in range(len(vs)) for j in range(i + 1, len(vs)))

    def test_lower_bound_refutation(self):
        g = random_graph(12, 0.5, seed=3)
        adj = adj_of(g)
        omega = len(brute_force_max_clique(g))
        assert max_clique_via_vc(adj, lower_bound=omega) is None
        found = max_clique_via_vc(adj, lower_bound=omega - 1)
        assert found is not None and len(found) == omega


def set_path_max_clique(adj, lower_bound, counters, probes):
    """The reduction on sets: a fresh complement per probe, each appended
    to ``probes``."""
    n = len(adj)
    counters.kvc_subsolves += 1

    def exists(size):
        if size <= 0:
            return []
        if size > n:
            return None
        comp = [set(range(n)) - adj[v] - {v} for v in range(n)]
        probes.append(comp)
        cover = decide_kvc(comp, n - size, counters=counters)
        if cover is None:
            return None
        return [v for v in range(n) if v not in set(cover)]

    if lower_bound + 1 > n:
        return None
    best = exists(lower_bound + 1)
    if best is None:
        return None
    lo, hi = len(best) + 1, n
    while lo <= hi:
        mid = (lo + hi) // 2
        clique = exists(mid)
        if clique is None:
            hi = mid - 1
        else:
            best, lo = clique, len(clique) + 1
    return best


class TestMaskReduction:
    """The mask-level reduction answers as the set path does, with the
    same counters, and builds the complement once for all its probes."""

    @given(st.integers(0, 24), st.floats(0.0, 1.0), st.integers(0, 10**6),
           st.integers(-1, 8))
    @settings(max_examples=80, deadline=None)
    def test_matches_set_path(self, n, p, seed, lower_bound):
        adj = adj_of(random_graph(n, p, seed=seed)) if n else []
        want_probes = []
        want_counters = Counters()
        want = set_path_max_clique(adj, lower_bound, want_counters,
                                   want_probes)
        probes = []
        decide = clique_via_vc.decide_kvc_masks

        def recording(comp, verts, k, counters=None, budget=None):
            probes.append((comp, verts, list(comp), list(verts)))
            return decide(comp, verts, k, counters, budget)

        counters = Counters()
        with mock.patch.object(clique_via_vc, "decide_kvc_masks", recording):
            got = max_clique_via_vc_masks(adjacency_masks(adj), lower_bound,
                                          counters)
        assert got == want
        assert counters.as_dict() == want_counters.as_dict()
        assert len(probes) == len(want_probes)
        # One complement and one vertex list, read by every probe and
        # equal to each probe's complement on the set path.
        assert len({id(comp) for comp, *_ in probes}) <= 1
        assert len({id(verts) for _, verts, *_ in probes}) <= 1
        for (_, _, comp, verts), sets in zip(probes, want_probes):
            assert comp == adjacency_masks(sets)
            assert verts == [v for v in range(len(sets)) if sets[v]]


class TestKernelHook:
    """perfbench's ``kvc.kernelize`` layer wraps the module-level name
    ``repro.vc.branch_bound.kernelize``; the search must look it up there
    once per branch node, or the layer silently reads zero."""

    def test_one_call_per_branch_node(self, monkeypatch):
        from repro import lazymc
        from repro.datasets import load
        from repro.vc import branch_bound

        calls = []
        kernel = branch_bound.kernelize

        def counted(*args, **kwargs):
            calls.append(None)
            return kernel(*args, **kwargs)

        monkeypatch.setattr(branch_bound, "kernelize", counted)
        # Every searched neighbourhood of mouse goes to the k-VC arm, so
        # all of its branch nodes are k-VC nodes.
        result = lazymc(load("mouse"))
        assert result.counters.mc_subsolves == 0
        assert result.counters.kvc_subsolves > 0
        assert len(calls) == result.counters.branch_nodes > 0
