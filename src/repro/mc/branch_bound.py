"""MCQ-style branch-and-bound maximum clique on small subgraphs.

This is the MC arm of the paper's algorithmic choice (§IV-E): Tomita-style
color-bounded branch and bound with candidates processed in reverse color
order, vertices pre-sorted by the subgraph's own degeneracy order, and
incumbent-size pruning.  It operates on set-adjacency over local ids
(``adj[v]`` is the set of neighbors of local vertex ``v``); ``NeighborSearch``
extracts candidate subgraphs as bitmasks and builds these sets from them.
"""

from __future__ import annotations

import heapq

from ..instrument import Counters, WorkBudget
from .coloring import color_sort


def peel_order(degrees: list[int], neighbors) -> list[int]:
    """Min-degree peeling order via a bucket queue of lazy heaps.

    Selects, at every step, the minimum-(current degree, id) alive vertex
    — the same tie-break as a linear ``min`` scan, but in
    O((n + m) log n) instead of O(n^2): ``buckets[d]`` is a heap of
    vertex ids whose degree *was* ``d`` when pushed; stale entries (degree
    since decreased, or vertex already peeled) are skipped on pop.  The
    cursor only rewinds by one per removal because degrees drop by at
    most one per peeled neighbor.

    ``neighbors`` maps a vertex to an iterable of its neighbor ids;
    shared by the set-adjacency and bit-parallel backends.
    """
    n = len(degrees)
    deg = list(degrees)
    buckets: dict[int, list[int]] = {}
    for v in range(n):
        buckets.setdefault(deg[v], []).append(v)
    for heap in buckets.values():
        heapq.heapify(heap)
    dead = [False] * n
    order: list[int] = []
    cursor = 0
    while len(order) < n:
        heap = buckets.get(cursor)
        v = None
        while heap:
            top = heap[0]
            if dead[top] or deg[top] != cursor:
                heapq.heappop(heap)  # stale entry
                continue
            v = heapq.heappop(heap)
            break
        if v is None:
            cursor += 1
            continue
        order.append(v)
        dead[v] = True
        for u in neighbors(v):
            if not dead[u]:
                deg[u] -= 1
                heapq.heappush(buckets.setdefault(deg[u], []), u)
        cursor = max(0, cursor - 1)
    return order


class MCSubgraphSolver:
    """Reusable solver instance carrying counters and budget."""

    def __init__(self, counters: Counters | None = None,
                 budget: WorkBudget | None = None):
        self.counters = counters if counters is not None else Counters()
        self.budget = budget
        self._adj: list[set] = []
        self._best: list[int] = []
        self._best_size = 0

    def solve(self, adj: list[set], lower_bound: int = 0) -> list[int] | None:
        """Find a clique strictly larger than ``lower_bound``.

        Returns the largest clique found as local ids, or ``None`` when no
        clique beats the bound.  The search is exact: ``None`` proves
        ``ω(subgraph) <= lower_bound``.
        """
        if not adj:
            return None
        self._adj = adj
        self._best = []
        self._best_size = lower_bound
        # Root candidates in degeneracy order: color_sort then refines.
        self._expand([], peel_order([len(s) for s in adj], adj.__getitem__))
        return list(self._best) if self._best else None

    # -- internals ---------------------------------------------------------------

    def _expand(self, clique: list[int], candidates: list[int]) -> None:
        counters = self.counters
        counters.branch_nodes += 1
        if self.budget is not None:
            self.budget.check()
        adj = self._adj
        ordered, colors = color_sort(adj, candidates, counters=counters)
        # Reverse color order: once |C| + color <= best, everything earlier
        # is pruned too because colors are non-decreasing in `ordered`.
        for i in range(len(ordered) - 1, -1, -1):
            if len(clique) + colors[i] <= self._best_size:
                return
            v = ordered[i]
            clique.append(v)
            new_candidates = [u for u in ordered[:i] if u in adj[v]]
            counters.elements_scanned += i
            if new_candidates:
                self._expand(clique, new_candidates)
            elif len(clique) > self._best_size:
                self._best = list(clique)
                self._best_size = len(clique)
                counters.incumbent_updates += 1
            clique.pop()

