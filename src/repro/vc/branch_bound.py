"""Branch-and-bound decision solver for k-vertex cover (§IV-E).

Branches on the highest-degree vertex v: either v is in the cover (budget
k - 1) or all of N(v) are (budget k - |N(v)|).  Kernelization runs at every
node; when the maximum degree reaches 2 the polynomial path/cycle solver
closes the instance.  A greedy maximal-matching lower bound prunes nodes
whose residual budget cannot cover the matching.

Nodes share neighbour sets by reference: each node owns its list, and a
set is copied only where a node discards from it.  The matching bound and
the kernel's rules read sets in iteration order, so the search and its
counters depend on that order.  In CPython a copy of a set with no
discards since its own last copy has the same table, hence the same
order; a set that has lost elements can reorder when copied.  So every
set is *clean* on node entry: the kernel and the branch step copy a set
before they discard from it, and the branch step copies it again after.
Each node then reads exactly the sets it would read if it copied every set
on entry and before each branch.

The decision form ``decide_kvc`` is what the clique reduction binary-search
consumes; ``minimum_vertex_cover`` wraps it in a linear search for tests
and the dOmega baseline.
"""

from __future__ import annotations

from itertools import compress

from ..instrument import Counters, WorkBudget
# The per-node kernel goes by ``kernelize`` here: perfbench's
# ``kvc.kernelize`` layer wraps this module's ``kernelize``.
from .kernelization import kernelize_in_place as kernelize
from .paths_cycles import vc_paths_and_cycles


def _matching_lower_bound(adj: list[set]) -> int:
    """Greedy maximal matching size: every cover needs >= one vertex per
    matched edge."""
    used = set()
    for v in compress(range(len(adj)), adj):
        if v in used:
            continue
        for u in adj[v]:
            if u not in used:
                used.add(v)
                used.add(u)
                break
    return len(used) // 2


def decide_kvc(adj: list[set], k: int, counters: Counters | None = None,
               budget: WorkBudget | None = None) -> list[int] | None:
    """Return a vertex cover of size <= k, or ``None`` if none exists.

    Exact: a ``None`` answer proves the minimum vertex cover exceeds k.
    """
    if k < 0:
        return None

    def search(work: list[set], k: int) -> list[int] | None:
        # ``work`` is this node's own list; its sets may be shared with
        # other nodes, so none is discarded from without a copy.  Every
        # set is clean on entry: a copy of it has the same order.
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

        degrees = list(map(len, work))
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
        nbrs = list(work[v])
        # Both branches start from clean copies of the kernel's dirty sets.
        for u in kr.dirty:
            work[u] = set(work[u])
        # Branch 1: v in the cover.  Each touched set is copied, discarded
        # from, and copied again so that it is clean in the child.
        left = work[:]
        for u in nbrs:
            s = set(work[u])
            s.discard(v)
            left[u] = set(s)
        left[v] = set()
        res = search(left, k - 1)
        if res is not None:
            return forced + [v] + res
        # Branch 2: N(v) in the cover (v excluded).  This node's list is
        # not read again, so it becomes the child's.
        if len(nbrs) > k:
            return None
        touched: set[int] = set()
        for u in nbrs:
            for w in work[u]:
                if w not in touched:
                    work[w] = set(work[w])
                    touched.add(w)
                work[w].discard(u)
            work[u] = set()
        for w in touched:
            work[w] = set(work[w])
        res = search(work, k - len(nbrs))
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
