"""Branch-and-bound decision solver for k-vertex cover (§IV-E).

Branches on the highest-degree vertex v (lowest id on ties): either v is in
the cover (budget k - 1) or all of N(v) are (budget k - |N(v)|).
Kernelization runs at every node; when the maximum degree reaches 2 the
polynomial path/cycle solver closes the instance.  A greedy clique-cover
lower bound prunes nodes whose residual budget cannot cover the cliques.

The search runs on Python-int bitmasks: one neighbourhood mask per
vertex, built once by the caller and shared by every node, and a node is
just ``(alive, k)``.  A vertex's degree is ``(masks[v] & alive).bit_count()``,
the first branch is ``alive`` without v and the second ``alive`` without
N(v), so no set or list is copied.  Every choice (kernel scan, branching
vertex, bound) goes by degree and id, so the cover and the counters do not
depend on set iteration order.

The decision form ``decide_kvc_masks`` is what the clique reduction's binary
search and the dOmega baseline consume, on complement masks they build
once.
"""

from __future__ import annotations

from ..instrument import Counters, WorkBudget
# The per-node kernel goes by ``kernelize`` here: perfbench's
# ``kvc.kernelize`` layer wraps this module's ``kernelize``.
from .kernelization import (
    kernelize_masks as kernelize, mask_ids, residual_adjacency,
)
from .paths_cycles import vc_paths_and_cycles


def clique_cover_bound(masks: list[int], alive: int, verts: list[int],
                       deg: list[int], k: int) -> int:
    """Greedy clique-cover lower bound on the vertex cover of ``alive``.

    A cover needs at least |C| - 1 vertices of every clique C, so disjoint
    cliques give the bound sum(|C| - 1).  Cliques start at the uncovered
    vertex of least (degree, id) and grow by their lowest-id common
    neighbour.  A matching is a clique cover whose cliques have at most two
    vertices, so this generalises the matching bound.  Stops as soon as
    the bound exceeds ``k``.  ``verts`` and ``deg`` are the kernel's.
    """
    free = alive
    bound = 0
    for v in sorted(verts, key=deg.__getitem__):
        if not free >> v & 1:
            continue
        free ^= 1 << v
        common = masks[v] & free
        while common:
            low = common & -common
            free ^= low
            bound += 1
            common &= masks[low.bit_length() - 1]
        if bound > k:
            break
    return bound


def decide_kvc_masks(masks: list[int], verts: list[int], k: int,
                     counters: Counters | None = None,
                     budget: WorkBudget | None = None) -> list[int] | None:
    """Return a vertex cover of size <= k, or ``None`` if none exists.

    The instance is given as neighbourhood bitmasks, one per vertex, and
    ``verts`` lists ascending every vertex whose mask is not empty.  The
    masks are read, never written, so a caller can reuse them (and the
    list) across calls.  Exact: a ``None`` answer proves the minimum vertex
    cover exceeds k.
    """
    if k < 0:
        return None
    n = len(masks)

    def search(alive: int, k: int, verts: list[int]) -> list[int] | None:
        # ``verts`` is the parent's residual vertex list, a superset of
        # this node's vertices of positive degree.
        if counters is not None:
            counters.branch_nodes += 1
        if budget is not None:
            budget.check()

        kernel = kernelize(masks, alive, k, verts, counters)
        if kernel is None:
            return None
        alive, k, forced, verts, deg = kernel
        if counters is not None:
            counters.elements_scanned += n
        if not verts:
            return forced
        if clique_cover_bound(masks, alive, verts, deg, k) > k:
            return None
        max_deg = max(deg)
        if max_deg <= 2:
            cover = vc_paths_and_cycles(
                residual_adjacency(masks, alive, verts))
            if len(cover) <= k:
                return forced + cover
            return None

        v = deg.index(max_deg)
        # Branch 1: v in the cover.
        res = search(alive ^ 1 << v, k - 1, verts)
        if res is not None:
            return forced + [v] + res
        # Branch 2: N(v) in the cover (v is left isolated).  The kernel
        # left every degree <= k.
        nbrs = masks[v] & alive
        res = search(alive ^ nbrs, k - max_deg, verts)
        if res is not None:
            return forced + mask_ids(nbrs) + res
        return None

    result = search((1 << n) - 1, k, verts)
    if result is None:
        return None
    # Deduplicate while preserving determinism.
    return sorted(set(result))

