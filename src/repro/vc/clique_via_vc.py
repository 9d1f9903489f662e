"""Maximum clique through k-vertex cover on the complement (§IV-E).

A clique of size s in a graph on n vertices is an independent set of size s
in the complement, i.e. the complement has a vertex cover of size n - s.
The paper solves dense candidate subgraphs this way: the complement of a
dense subgraph is sparse, and the k-VC solver's kernelization thrives on
sparse instances.  Like dOmega, a binary search over plausible clique sizes
drives repeated k-VC decision calls — but applied to a single neighborhood
(the paper's refinement), with the incumbent clique size as the lower end
of the range.

The reduction works on Python-int bitmasks: the complement masks and their
vertex list are built once per neighbourhood, and every probe of the binary
search decides on those same masks.  ``max_clique_via_vc_masks`` is the
form ``NeighborSearch`` calls.
"""

from __future__ import annotations

from ..graph.complement import complement_masks
from ..instrument import Counters, WorkBudget
from .branch_bound import decide_kvc_masks


def _probe(comp: list[int], verts: list[int], size: int,
           counters: Counters | None,
           budget: WorkBudget | None) -> list[int] | None:
    """A clique of at least ``size`` vertices from one k-VC decision on the
    complement ``comp`` (``verts`` lists its vertices of positive degree)."""
    n = len(comp)
    if size <= 0:
        return []
    if size > n:
        return None
    cover = decide_kvc_masks(comp, verts, n - size, counters, budget)
    if cover is None:
        return None
    in_cover = set(cover)
    # The cover may be smaller than k, giving a larger clique.
    return [v for v in range(n) if v not in in_cover]


def max_clique_via_vc_masks(masks: list[int], lower_bound: int = 0,
                            counters: Counters | None = None,
                            budget: WorkBudget | None = None
                            ) -> list[int] | None:
    """Find a maximum clique strictly larger than ``lower_bound``.

    ``masks`` is the graph as one neighbourhood bitmask per vertex.  Binary
    search over clique sizes in (lower_bound, n]; each probe is a k-VC
    decision on the complement, built once for all probes.  Returns
    ``None`` when ω(subgraph) <= lower_bound (an exact negative), otherwise
    a maximum clique as local ids.
    """
    n = len(masks)
    if counters is not None:
        counters.kvc_subsolves += 1
    if lower_bound + 1 > n:
        return None
    comp = complement_masks(masks)
    verts = [v for v, m in enumerate(comp) if m]
    # First probe at the minimum interesting size: most neighborhoods
    # contain no clique beating the incumbent, and the k-VC instance with
    # the loosest budget is the cheapest to refute (work-avoidance).
    best = _probe(comp, verts, lower_bound + 1, counters, budget)
    if best is None:
        return None
    # Binary search the remaining range for the exact maximum.
    lo = len(best) + 1
    hi = n
    while lo <= hi:
        mid = (lo + hi) // 2
        clique = _probe(comp, verts, mid, counters, budget)
        if clique is None:
            hi = mid - 1
        else:
            best = clique
            lo = len(clique) + 1
    return best

