"""Maximum clique through k-vertex cover on the complement (§IV-E).

A clique of size s in a graph on n vertices is an independent set of size s
in the complement, i.e. the complement has a vertex cover of size n - s.
The paper solves dense candidate subgraphs this way: the complement of a
dense subgraph is sparse, and the k-VC solver's kernelization thrives on
sparse instances.  Like dOmega, a binary search over plausible clique sizes
drives repeated k-VC decision calls — but applied to a single neighborhood
(the paper's refinement), with the incumbent clique size as the lower end
of the range.
"""

from __future__ import annotations

from ..graph.complement import complement_adjacency_sets
from ..instrument import Counters, WorkBudget
from .branch_bound import decide_kvc


def clique_exists_via_vc(adj: list[set], size: int,
                         counters: Counters | None = None,
                         budget: WorkBudget | None = None) -> list[int] | None:
    """Return a clique of at least ``size`` vertices, or ``None``.

    Decides via one k-VC call on the complement with k = n - size.
    """
    n = len(adj)
    if size <= 0:
        return []
    if size > n:
        return None
    comp = complement_adjacency_sets(adj)
    cover = decide_kvc(comp, n - size, counters=counters, budget=budget)
    if cover is None:
        return None
    in_cover = set(cover)
    clique = [v for v in range(n) if v not in in_cover]
    # decide_kvc may return a smaller cover than k, giving a larger clique.
    return clique


def max_clique_via_vc(adj: list[set], lower_bound: int = 0,
                      counters: Counters | None = None,
                      budget: WorkBudget | None = None) -> list[int] | None:
    """Find a maximum clique strictly larger than ``lower_bound``.

    Binary search over clique sizes in (lower_bound, n]; each probe is a
    k-VC decision on the complement.  Returns ``None`` when
    ω(subgraph) <= lower_bound (an exact negative), otherwise a maximum
    clique as local ids.
    """
    n = len(adj)
    if counters is not None:
        counters.kvc_subsolves += 1
    if lower_bound + 1 > n:
        return None
    # First probe at the minimum interesting size: most neighborhoods
    # contain no clique beating the incumbent, and the k-VC instance with
    # the loosest budget is the cheapest to refute (work-avoidance).
    best = clique_exists_via_vc(adj, lower_bound + 1, counters=counters, budget=budget)
    if best is None:
        return None
    # Binary search the remaining range for the exact maximum.
    lo = len(best) + 1
    hi = n
    while lo <= hi:
        mid = (lo + hi) // 2
        clique = clique_exists_via_vc(adj, mid, counters=counters, budget=budget)
        if clique is None:
            hi = mid - 1
        else:
            best = clique
            lo = len(clique) + 1
    return best
