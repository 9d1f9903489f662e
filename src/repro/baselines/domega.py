"""dOmega-style maximum clique via k-vertex cover (Walteros & Buchanan).

Exploits the empirical smallness of the clique-core gap g = d + 1 - ω:
test candidate clique sizes w = d + 1 - g by asking, for each vertex whose
coreness permits, whether its right-neighborhood contains a (w-1)-clique —
decided as a k-VC instance on the neighborhood's complement.  The gap is
scanned either linearly from 0 (``LS``) or by binary search over
[0, d + 1 - ω̂] (``BS``), with ω̂ from a degeneracy-order greedy heuristic;
the paper evaluates both variants (Table II).  Sequential by design.
"""

from __future__ import annotations

import numpy as np

from ..errors import BudgetExceeded
from ..graph.csr import CSRGraph
from ..graph.kcore import peeling_order
from ..graph.ordering import VertexOrder
from ..graph.complement import complement_masks
from ..graph.subgraph import induced_masks
from ..instrument import Counters, WorkBudget
from ..vc.branch_bound import decide_kvc_masks
from .common import BaselineResult, Stopwatch


def _greedy_heuristic(graph: CSRGraph, core: np.ndarray, order: VertexOrder,
                      counters: Counters) -> list[int]:
    """Greedy clique by descending coreness — primes the gap range."""
    if graph.n == 0:
        return []
    seed = int(np.argmax(core))
    clique = [seed]
    cand = set(int(u) for u in graph.neighbors(seed))
    counters.elements_scanned += graph.degree(seed)
    while cand:
        u = max(cand, key=lambda x: (int(core[x]), -x))
        clique.append(u)
        cand &= set(int(w) for w in graph.neighbors(u))
        counters.elements_scanned += graph.degree(u)
    return clique


def _find_w_clique(graph: CSRGraph, core: np.ndarray, rank: np.ndarray,
                   w: int, counters: Counters,
                   budget: WorkBudget | None) -> list[int] | None:
    """Search for any clique of exactly-or-more ``w`` vertices.

    For every vertex with coreness >= w - 1, the right-neighborhood
    (within the eligible coreness levels) is tested for a (w-1)-clique via
    one k-VC decision on its complement.
    """
    if w <= 1:
        return [0] if graph.n else None
    eligible = core >= w - 1
    for v in np.flatnonzero(eligible):
        v = int(v)
        if budget is not None:
            budget.check()
        nbrs = graph.neighbors(v)
        counters.elements_scanned += len(nbrs)
        cand = nbrs[(rank[nbrs] > rank[v]) & eligible[nbrs]]
        if len(cand) < w - 1:
            continue
        cand_list = cand.tolist()
        rows = [graph.neighbors(u) for u in cand_list]
        counters.elements_scanned += sum(map(len, rows))
        comp = complement_masks(induced_masks(rows, cand))
        counters.kvc_subsolves += 1
        cover = decide_kvc_masks(comp, [i for i, m in enumerate(comp) if m],
                                 len(cand) - (w - 1), counters, budget)
        if cover is not None:
            in_cover = set(cover)
            return [v] + [u for i, u in enumerate(cand_list)
                          if i not in in_cover]
    return None


def domega(graph: CSRGraph, variant: str = "ls", max_work: int | None = None,
           max_seconds: float | None = None) -> BaselineResult:
    """Run dOmega.  ``variant`` is ``"ls"`` (linear scan of the gap from 0)
    or ``"bs"`` (binary search over the gap range)."""
    if variant not in ("ls", "bs"):
        raise ValueError("variant must be 'ls' or 'bs'")
    watch = Stopwatch()
    counters = Counters()
    budget = WorkBudget(max_work, max_seconds, counters)
    name = f"domega-{variant}"

    if graph.n == 0:
        return BaselineResult(name, [], 0, counters, watch.elapsed())

    timed_out = False
    best: list[int] = [0]
    try:
        core, order_seq = peeling_order(graph)
        order = VertexOrder.from_sequence(order_seq)
        rank = order.old_to_new
        counters.elements_scanned += graph.n + 2 * graph.m
        d = int(core.max())
        best = _greedy_heuristic(graph, core, order, counters)
        lower = len(best)

        if variant == "ls":
            # g = 0, 1, 2, ... : first feasible w = d + 1 - g is omega.
            for g in range(0, d + 1 - lower + 1):
                w = d + 1 - g
                if w <= lower:
                    break
                clique = _find_w_clique(graph, core, rank, w, counters, budget)
                if clique is not None:
                    best = clique
                    break
        else:
            # Binary search the largest feasible w in (lower, d + 1].
            lo, hi = lower + 1, d + 1
            while lo <= hi:
                mid = (lo + hi) // 2
                clique = _find_w_clique(graph, core, rank, mid, counters, budget)
                if clique is not None:
                    best = clique
                    lo = len(clique) + 1
                else:
                    hi = mid - 1
    except BudgetExceeded:
        timed_out = True

    clique = sorted(best)
    return BaselineResult(name, clique, len(clique), counters,
                          watch.elapsed(), timed_out)
