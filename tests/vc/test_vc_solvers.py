"""Tests for kernelization, path/cycle VC, branch-and-bound k-VC, and the
clique-via-VC reduction."""

import itertools
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.graph import from_edges, complete_graph, complement
from repro.instrument import Counters
from repro.vc import (
    decide_kvc_masks, kernelize_masks, max_clique_via_vc_masks,
    vc_paths_and_cycles,
)
from repro.vc import clique_via_vc
from repro.vc.kernelization import residual_adjacency
from tests.conftest import brute_force_max_clique, random_graph


def adj_of(graph):
    return [set(map(int, graph.neighbors(v))) for v in range(graph.n)]


def masks_of(adj):
    return [sum(1 << u for u in s) for s in adj]


def verts_of(adj):
    return [v for v, s in enumerate(adj) if s]


def kernelize(adj, k):
    full = (1 << len(adj)) - 1
    return kernelize_masks(masks_of(adj), full, k, verts_of(adj))


def decide(adj, k, counters=None):
    return decide_kvc_masks(masks_of(adj), verts_of(adj), k, counters)


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
    """``kernelize_masks`` returns ``(alive, k, forced, verts, deg)``, or
    None for a proven no-instance."""

    def test_isolated_vertices_ignored(self):
        kernel = kernelize([set(), set(), set()], 0)
        assert kernel is not None
        assert kernel[2] == []

    def test_pendant_rule(self):
        # Path 0-1: pendant rule covers with the neighbor.
        adj = adj_of(from_edges(2, [(0, 1)]))
        forced = kernelize(adj, 1)[2]
        assert len(forced) == 1
        assert is_cover(adj, forced)

    def test_buss_rule(self):
        # Star center has degree 5 > k=1, must be forced.
        adj = adj_of(from_edges(6, [(0, i) for i in range(1, 6)]))
        forced = kernelize(adj, 1)[2]
        assert 0 in forced
        assert is_cover(adj, forced)

    def test_triangle_rule(self):
        adj = adj_of(from_edges(3, [(0, 1), (1, 2), (0, 2)]))
        forced = kernelize(adj, 2)[2]
        assert len(set(forced)) == 2
        assert is_cover(adj, forced)

    def test_infeasible_negative_budget(self):
        adj = adj_of(complete_graph(5))
        assert kernelize(adj, 0) is None

    def test_buss_size_bound_detects_infeasible(self):
        # Large matching: min VC = 20 but k = 3; kernel keeps degree-1 rule
        # firing, so feasibility fails via budget.
        edges = [(2 * i, 2 * i + 1) for i in range(20)]
        adj = adj_of(from_edges(40, edges))
        assert kernelize(adj, 3) is None

    def test_buss_size_bound_edge_count_is_tight(self):
        # Cycles leave every rule idle at k = 2: C4 has k^2 edges and
        # stays, C5 has k^2 + 1 and is refuted by the size bound alone.
        c4 = adj_of(from_edges(4, [(i, (i + 1) % 4) for i in range(4)]))
        c5 = adj_of(from_edges(5, [(i, (i + 1) % 5) for i in range(5)]))
        alive, k, forced, verts, _ = kernelize(c4, 2)
        assert residual_adjacency(masks_of(c4), alive, verts) == c4
        assert k == 2 and forced == []
        assert kernelize(c5, 2) is None

    def test_input_not_mutated(self):
        adj = adj_of(from_edges(3, [(0, 1), (1, 2)]))
        masks, verts = masks_of(adj), verts_of(adj)
        kernelize_masks(masks, 0b111, 2, verts)
        assert (masks, verts) == (masks_of(adj), verts_of(adj))


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
            cover = decide(adj, k)
            if k >= opt:
                assert cover is not None
                assert len(cover) <= k
                assert is_cover(adj, cover)
            else:
                assert cover is None

    def test_negative_k(self):
        assert decide([{1}, {0}], -1) is None

    def test_counts_kernel_reductions(self):
        c = Counters()
        adj = adj_of(from_edges(4, [(0, 1), (1, 2), (2, 3)]))
        decide(adj, 2, counters=c)
        assert c.kernel_reductions > 0


class TestMinimumVertexCover:
    """The smallest feasible k is the minimum vertex cover size."""

    @given(st.integers(2, 10), st.floats(0.1, 0.9), st.integers(0, 10**6))
    @settings(max_examples=50, deadline=None)
    def test_property_optimal(self, n, p, seed):
        g = random_graph(n, p, seed=seed)
        adj = adj_of(g)
        opt = brute_min_vc(adj)
        cover = decide(adj, opt)
        assert cover is not None and len(cover) == opt
        assert is_cover(adj, cover)
        assert decide(adj, opt - 1) is None

    def test_empty(self):
        assert decide([], 0) == []
        assert decide([set(), set()], 0) == []


class TestCliqueViaVC:
    def test_duality_on_random(self):
        """|MVC(complement)| = n - omega (König-free sanity, §II-B)."""
        for seed in range(5):
            g = random_graph(12, 0.5, seed=seed + 11)
            omega = len(brute_force_max_clique(g))
            comp = adj_of(complement(g))
            assert decide(comp, g.n - omega) is not None
            assert decide(comp, g.n - omega - 1) is None

    def test_exists_probe(self):
        """A probe for a clique of ``size`` is a search above
        ``size - 1``; a size-0 probe answers at once."""
        masks = masks_of(adj_of(complete_graph(5)))
        clique = max_clique_via_vc_masks(masks, lower_bound=4)
        assert clique is not None and len(clique) >= 5
        assert max_clique_via_vc_masks(masks, lower_bound=5) is None
        assert len(max_clique_via_vc_masks(masks, lower_bound=-1)) == 5

    @pytest.mark.parametrize("seed", range(8))
    def test_max_clique_matches_oracle(self, seed):
        g = random_graph(13, 0.6, seed=seed * 7 + 2)
        adj = adj_of(g)
        omega = len(brute_force_max_clique(g))
        clique = max_clique_via_vc_masks(masks_of(adj))
        assert clique is not None
        assert len(clique) == omega
        vs = sorted(clique)
        assert all(vs[j] in adj[vs[i]]
                   for i in range(len(vs)) for j in range(i + 1, len(vs)))

    def test_lower_bound_refutation(self):
        g = random_graph(12, 0.5, seed=3)
        adj = adj_of(g)
        omega = len(brute_force_max_clique(g))
        masks = masks_of(adj)
        assert max_clique_via_vc_masks(masks, lower_bound=omega) is None
        found = max_clique_via_vc_masks(masks, lower_bound=omega - 1)
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
        cover = decide(comp, n - size, counters=counters)
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
            got = max_clique_via_vc_masks(masks_of(adj), lower_bound,
                                          counters)
        assert got == want
        assert counters.as_dict() == want_counters.as_dict()
        assert len(probes) == len(want_probes)
        # One complement and one vertex list, read by every probe and
        # equal to each probe's complement on the set path.
        assert len({id(comp) for comp, *_ in probes}) <= 1
        assert len({id(verts) for _, verts, *_ in probes}) <= 1
        for (_, _, comp, verts), sets in zip(probes, want_probes):
            assert comp == masks_of(sets)
            assert verts == [v for v in range(len(sets)) if sets[v]]

