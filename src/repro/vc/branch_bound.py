"""Branch-and-bound decision solver for k-vertex cover (§IV-E).

Branches on the highest-degree vertex v: either v is in the cover (budget
k - 1) or all of N(v) are (budget k - |N(v)|).  Kernelization runs at every
node; when the maximum degree reaches 2 the polynomial path/cycle solver
closes the instance.  A greedy maximal-matching lower bound prunes nodes
whose residual budget cannot cover the matching.

The decision form ``decide_kvc`` is what the clique reduction binary-search
consumes; ``minimum_vertex_cover`` wraps it in a linear search for tests
and the dOmega baseline.
"""

from __future__ import annotations

from ..instrument import Counters, WorkBudget
from .kernelization import kernelize
from .paths_cycles import vc_paths_and_cycles


def _matching_lower_bound(adj: list[set]) -> int:
    """Greedy maximal matching size: every cover needs >= one vertex per
    matched edge."""
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


def decide_kvc(adj: list[set], k: int, counters: Counters | None = None,
               budget: WorkBudget | None = None) -> list[int] | None:
    """Return a vertex cover of size <= k, or ``None`` if none exists.

    Exact: a ``None`` answer proves the minimum vertex cover exceeds k.
    """
    if k < 0:
        return None

    def search(work: list[set], k: int) -> list[int] | None:
        if counters is not None:
            counters.branch_nodes += 1
        if budget is not None:
            budget.check()

        kr = kernelize(work, k, counters=counters)
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
        if _matching_lower_bound(work) > k:
            return None
        if max_deg <= 2:
            cover = vc_paths_and_cycles(work)
            if len(cover) <= k:
                return forced + cover
            return None

        v = degrees.index(max_deg)
        # Branch 1: v in the cover.
        left = [set(s) for s in work]
        for u in left[v]:
            left[u].discard(v)
        left[v] = set()
        res = search(left, k - 1)
        if res is not None:
            return forced + [v] + res
        # Branch 2: N(v) in the cover (v excluded).
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
    # Deduplicate while preserving determinism.
    return sorted(set(result))


def minimum_vertex_cover(adj: list[set], counters: Counters | None = None,
                         budget: WorkBudget | None = None) -> list[int]:
    """Exact minimum vertex cover by binary search over ``decide_kvc``."""
    n = len(adj)
    if n == 0:
        return []
    lo, hi = 0, n
    best: list[int] = list(range(n))
    # Standard binary search for the smallest feasible k.
    while lo < hi:
        mid = (lo + hi) // 2
        cover = decide_kvc(adj, mid, counters=counters, budget=budget)
        if cover is not None:
            best = cover
            hi = len(cover)
        else:
            lo = mid + 1
    return best
