"""Differential check of the k-VC arm against a frozen copy of the
copy-everything implementation.

The production kernel and branch-and-bound share neighbour sets between
nodes and copy only the sets they discard from.  The frozen functions
below copy every set at kernel entry and at each branch.  Because the
matching bound and the kernel's rules read sets in iteration order, the
two must agree not only on content but on that order: same forced list,
same residual ``list(s)``, same cover and the same counters.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.graph.complement import complement_adjacency_sets
from repro.instrument import Counters
from repro.vc import (
    decide_kvc, kernelize, max_clique_via_vc, minimum_vertex_cover,
)
from repro.vc.kernelization import KernelResult
from repro.vc.paths_cycles import vc_paths_and_cycles


def _frozen_remove_vertex(adj, v):
    for u in adj[v]:
        adj[u].discard(v)
    adj[v] = set()


def _frozen_kernelize(adj, k, counters=None):
    work = [set(s) for s in adj]
    forced = []
    n = len(work)
    changed = True
    while changed:
        changed = False
        if k < 0:
            return KernelResult(feasible=False)
        for v in range(n):
            d = len(work[v])
            if d == 0:
                continue
            if d > k:
                forced.append(v)
                _frozen_remove_vertex(work, v)
                k -= 1
                changed = True
                if counters is not None:
                    counters.kernel_reductions += 1
                if k < 0:
                    return KernelResult(feasible=False)
            elif d == 1:
                u = next(iter(work[v]))
                forced.append(u)
                _frozen_remove_vertex(work, u)
                k -= 1
                changed = True
                if counters is not None:
                    counters.kernel_reductions += 1
                if k < 0:
                    return KernelResult(feasible=False)
            elif d == 2:
                u, w = tuple(work[v])
                if u in work[w]:
                    forced.append(u)
                    forced.append(w)
                    _frozen_remove_vertex(work, u)
                    _frozen_remove_vertex(work, w)
                    k -= 2
                    changed = True
                    if counters is not None:
                        counters.kernel_reductions += 1
                    if k < 0:
                        return KernelResult(feasible=False)
    edges = sum(len(s) for s in work) // 2
    positive = sum(1 for s in work if s)
    if edges > k * k or positive > k * k + k:
        return KernelResult(feasible=False)
    return KernelResult(feasible=True, adj=work, forced=forced, k=k)


def _frozen_matching_lower_bound(adj):
    used = set()
    size = 0
    for v in range(len(adj)):
        if v in used or not adj[v]:
            continue
        for u in adj[v]:
            if u not in used:
                used.add(v)
                used.add(u)
                size += 1
                break
    return size


def _frozen_decide_kvc(adj, k, counters=None):
    if k < 0:
        return None

    def search(work, k):
        if counters is not None:
            counters.branch_nodes += 1
        kr = _frozen_kernelize(work, k, counters=counters)
        if not kr.feasible:
            return None
        work = kr.adj
        k = kr.k
        forced = kr.forced
        degrees = [len(s) for s in work]
        if counters is not None:
            counters.elements_scanned += len(work)
        max_deg = max(degrees, default=0)
        if max_deg == 0:
            return forced
        if _frozen_matching_lower_bound(work) > k:
            return None
        if max_deg <= 2:
            cover = vc_paths_and_cycles(work)
            if len(cover) <= k:
                return forced + cover
            return None
        v = degrees.index(max_deg)
        left = [set(s) for s in work]
        for u in left[v]:
            left[u].discard(v)
        left[v] = set()
        res = search(left, k - 1)
        if res is not None:
            return forced + [v] + res
        nbrs = list(work[v])
        if len(nbrs) > k:
            return None
        right = [set(s) for s in work]
        for u in nbrs:
            for w in right[u]:
                right[w].discard(u)
            right[u] = set()
        res = search(right, k - len(nbrs))
        if res is not None:
            return forced + nbrs + res
        return None

    result = search([set(s) for s in adj], k)
    if result is None:
        return None
    return sorted(set(result))


def _random_adjacency(n, p, seed):
    """Sets grown one ``add`` at a time, in a shuffled edge order, so
    their tables are not the ones a copy would build."""
    rng = random.Random(seed)
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)
             if rng.random() < p]
    rng.shuffle(edges)
    adj = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


instances = st.builds(
    lambda n, p, seed, complemented: (
        complement_adjacency_sets(_random_adjacency(n, p, seed))
        if complemented else _random_adjacency(n, p, seed)),
    st.integers(0, 36), st.floats(0.0, 1.0), st.integers(0, 10**6),
    st.booleans())


#: Complements of dense graphs: the k-VC arm's own inputs.  With k at the
#: minimum cover size and one below, the search branches deep enough for
#: set order to decide the matching bound's prunes.
dense_complements = st.builds(
    lambda n, p, seed: complement_adjacency_sets(_random_adjacency(n, p, seed)),
    st.integers(16, 44), st.floats(0.5, 0.95), st.integers(0, 10**6))


def _snapshot(adj):
    return [list(s) for s in adj]


class TestFrozenEquivalence:
    @given(instances, st.integers(-1, 40))
    @settings(max_examples=200, deadline=None)
    def test_kernelize(self, adj, k):
        want = Counters()
        got = Counters()
        frozen = _frozen_kernelize(adj, k, counters=want)
        kr = kernelize(adj, k, counters=got)
        assert kr.feasible == frozen.feasible
        assert got.as_dict() == want.as_dict()
        if frozen.feasible:
            assert kr.forced == frozen.forced
            assert kr.k == frozen.k
            assert _snapshot(kr.adj) == _snapshot(frozen.adj)

    @staticmethod
    def _assert_same_decision(adj, k):
        want = Counters()
        got = Counters()
        assert decide_kvc(adj, k, counters=got) == \
            _frozen_decide_kvc(adj, k, counters=want)
        assert got.as_dict() == want.as_dict()

    @given(instances, st.integers(-1, 40))
    @settings(max_examples=200, deadline=None)
    def test_decide_kvc(self, adj, k):
        self._assert_same_decision(adj, k)

    @given(dense_complements)
    @settings(max_examples=100, deadline=None)
    def test_decide_kvc_at_the_cover_size(self, adj):
        opt = len(minimum_vertex_cover(adj))
        self._assert_same_decision(adj, opt - 1)
        self._assert_same_decision(adj, opt)


class TestCallerAdjacencyUntouched:
    """Sets are shared by reference inside the search; the caller's must
    keep their content and their iteration order."""

    @given(instances, st.integers(0, 40))
    @settings(max_examples=100, deadline=None)
    def test_kernelize_and_decide_kvc(self, adj, k):
        before = _snapshot(adj)
        kernelize(adj, k)
        assert _snapshot(adj) == before
        decide_kvc(adj, k)
        assert _snapshot(adj) == before

    @given(instances, st.integers(0, 5))
    @settings(max_examples=100, deadline=None)
    def test_max_clique_via_vc(self, adj, lower_bound):
        before = _snapshot(adj)
        max_clique_via_vc(adj, lower_bound=lower_bound)
        assert _snapshot(adj) == before
