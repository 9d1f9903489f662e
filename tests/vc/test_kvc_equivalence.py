"""Differential checks of the k-VC arm.

The frozen functions below are the copy-everything set-based kernel and
branch-and-bound with the greedy matching bound that the bitmask search
replaced.  The two searches use different bounds, so their node counts
differ by design; the frozen copy is kept as a *decision* oracle (the same
``None``/cover answer for every ``(adj, k)``) and as the reference for the
kernel's rules, which did not change.  The mask search also makes every
choice by degree and id, so its cover and counters must not depend on the
iteration order of the caller's sets, which the frozen copy's do.
"""

import itertools
import random
from dataclasses import dataclass, field

from hypothesis import given, settings, strategies as st

from repro.graph.complement import complement_masks
from repro.instrument import Counters
from repro.vc import decide_kvc_masks, kernelize_masks, max_clique_via_vc_masks
from repro.vc.branch_bound import clique_cover_bound
from repro.vc.kernelization import residual_adjacency
from repro.vc.paths_cycles import vc_paths_and_cycles


@dataclass
class KernelResult:
    """The frozen kernel's outcome: the residual sets, the forced
    vertices and the residual budget, or ``feasible=False``."""

    feasible: bool
    adj: list = field(default_factory=list)
    forced: list = field(default_factory=list)
    k: int = 0


def masks_of(adj):
    return [sum(1 << u for u in s) for s in adj]


def verts_of(adj):
    return [v for v, s in enumerate(adj) if s]


def _min_cover_size(adj):
    """|MVC(adj)| = n - ω(complement of adj), by the clique reduction."""
    return len(adj) - len(max_clique_via_vc_masks(
        complement_masks(masks_of(adj))) or [])


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


def complement_adjacency_sets(adj):
    """The complement as sets, built as the k-VC arm built it before it
    moved to masks (the frozen search's node counts depend on the sets'
    iteration order)."""
    n = len(adj)
    universe = set(range(n))
    return [universe - adj[v] - {v} for v in range(n)]


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


def _reordered(adj):
    """Equal sets with other tables: each is grown from eight padding ids
    that are then discarded, with its own ids added in descending order."""
    pad = range(len(adj), len(adj) + 8)
    out = []
    for s in adj:
        t = set(pad)
        t.update(sorted(s, reverse=True))
        t.difference_update(pad)
        out.append(t)
    return out


def _is_cover(adj, cover):
    cs = set(cover)
    return all(u in cs or v in cs for u in range(len(adj)) for v in adj[u])


instances = st.builds(
    lambda n, p, seed, complemented: (
        complement_adjacency_sets(_random_adjacency(n, p, seed))
        if complemented else _random_adjacency(n, p, seed)),
    st.integers(0, 36), st.floats(0.0, 1.0), st.integers(0, 10**6),
    st.booleans())


#: Complements of dense graphs: the k-VC arm's own inputs.  With k at the
#: minimum cover size and one below, the search branches deep enough for
#: the bound's prunes to matter.
dense_complements = st.builds(
    lambda n, p, seed: complement_adjacency_sets(_random_adjacency(n, p, seed)),
    st.integers(16, 44), st.floats(0.5, 0.95), st.integers(0, 10**6))


def _snapshot(adj):
    return [list(s) for s in adj]


class TestFrozenEquivalence:
    @given(instances, st.integers(-1, 40))
    @settings(max_examples=200, deadline=None)
    def test_kernelize(self, adj, k):
        """The kernel's rules are unchanged: same residual, budget, forced
        vertices and reduction count as the frozen full-round kernel."""
        want = Counters()
        got = Counters()
        frozen = _frozen_kernelize(adj, k, counters=want)
        masks = masks_of(adj)
        kernel = kernelize_masks(masks, (1 << len(adj)) - 1, k, verts_of(adj),
                                 counters=got)
        assert (kernel is not None) == frozen.feasible
        assert got.as_dict() == want.as_dict()
        if frozen.feasible:
            alive, residual_k, forced, verts, _ = kernel
            assert sorted(forced) == sorted(frozen.forced)
            assert residual_k == frozen.k
            assert residual_adjacency(masks, alive, verts) == frozen.adj

    @staticmethod
    def _assert_same_decision(adj, k):
        got = decide_kvc_masks(masks_of(adj), verts_of(adj), k)
        want = _frozen_decide_kvc(adj, k)
        assert (got is None) == (want is None)
        if got is not None:
            assert len(got) <= k
            assert _is_cover(adj, got)

    @given(instances, st.integers(-1, 40))
    @settings(max_examples=200, deadline=None)
    def test_decide_kvc(self, adj, k):
        self._assert_same_decision(adj, k)

    @given(dense_complements)
    @settings(max_examples=100, deadline=None)
    def test_decide_kvc_at_the_cover_size(self, adj):
        opt = _min_cover_size(adj)
        self._assert_same_decision(adj, opt - 1)
        self._assert_same_decision(adj, opt)


def _brute_min_vc(adj):
    n = len(adj)
    for size in range(n + 1):
        for cover in itertools.combinations(range(n), size):
            if _is_cover(adj, cover):
                return size
    return n


class TestCliqueCoverBound:
    @given(st.integers(0, 12), st.floats(0.0, 1.0), st.integers(0, 10**6))
    @settings(max_examples=200, deadline=None)
    def test_never_exceeds_the_minimum_cover(self, n, p, seed):
        adj = _random_adjacency(n, p, seed)
        masks = masks_of(adj)
        verts = verts_of(adj)
        deg = [len(s) for s in adj]
        bound = clique_cover_bound(masks, (1 << n) - 1, verts, deg, n)
        assert bound <= _brute_min_vc(adj)

    def test_complete_graph_is_one_clique(self):
        n = 7
        adj = [set(range(n)) - {v} for v in range(n)]
        bound = clique_cover_bound(masks_of(adj), (1 << n) - 1,
                                   list(range(n)), [n - 1] * n, n)
        assert bound == n - 1 == _brute_min_vc(adj)


class TestOrderFreedom:
    """Equal sets that iterate in other orders give the same cover and
    the same counters."""

    @staticmethod
    def _run(adj, k):
        counters = Counters()
        return (decide_kvc_masks(masks_of(adj), verts_of(adj), k, counters),
                counters.as_dict())

    @given(dense_complements)
    @settings(max_examples=100, deadline=None)
    def test_decide_kvc(self, adj):
        other = _reordered(adj)
        assert other == adj
        opt = _min_cover_size(adj)
        for k in (opt - 1, opt):
            assert self._run(other, k) == self._run(adj, k)

    def test_frozen_search_depends_on_order(self):
        """The check bites: on this instance the frozen search's node
        count moves under reordering, the mask search's does not."""
        adj = complement_adjacency_sets(_random_adjacency(20, 0.7, 105))
        other = _reordered(adj)
        k = _min_cover_size(adj) - 1
        before, after = Counters(), Counters()
        _frozen_decide_kvc(adj, k, counters=before)
        _frozen_decide_kvc(other, k, counters=after)
        assert before.branch_nodes != after.branch_nodes
        assert self._run(other, k) == self._run(adj, k)

    def test_kernelize(self):
        adj = complement_adjacency_sets(_random_adjacency(24, 0.8, 37))
        other = _reordered(adj)
        assert _snapshot(other) != _snapshot(adj)
        full = (1 << len(adj)) - 1
        for k in range(len(adj)):
            a = kernelize_masks(masks_of(adj), full, k, verts_of(adj))
            b = kernelize_masks(masks_of(other), full, k, verts_of(other))
            assert a == b


class TestCallerAdjacencyUntouched:
    """The caller's masks and vertex list are read, never written."""

    @given(instances, st.integers(0, 40))
    @settings(max_examples=100, deadline=None)
    def test_kernelize_and_decide_kvc(self, adj, k):
        masks, verts = masks_of(adj), verts_of(adj)
        kernelize_masks(masks, (1 << len(adj)) - 1, k, verts)
        assert (masks, verts) == (masks_of(adj), verts_of(adj))
        decide_kvc_masks(masks, verts, k)
        assert (masks, verts) == (masks_of(adj), verts_of(adj))

    @given(instances, st.integers(0, 5))
    @settings(max_examples=100, deadline=None)
    def test_max_clique_via_vc(self, adj, lower_bound):
        masks = masks_of(adj)
        max_clique_via_vc_masks(masks, lower_bound=lower_bound)
        assert masks == masks_of(adj)
