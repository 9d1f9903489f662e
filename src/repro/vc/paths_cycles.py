"""Polynomial-time vertex cover for maximum degree two (§IV-E).

When branching and kernelization have driven the maximum degree to 2, the
residual graph is a disjoint union of simple paths and cycles, for which
minimum vertex cover is closed-form: a path on p vertices needs
``floor(p / 2)`` cover vertices, a cycle on c vertices needs
``ceil(c / 2)``.  The paper's k-VC solver "resorts to a polynomial time
algorithm for paths and cycles when the maximum degree becomes two".
"""

from __future__ import annotations

from ..errors import SolverError


def _components_deg_le2(adj: list[set]) -> list[tuple[list[int], bool]]:
    """Decompose a max-degree-2 graph into (vertex-path, is_cycle) pieces.

    Paths are returned end-to-end in traversal order; isolated vertices
    are returned as single-vertex paths.
    """
    n = len(adj)
    seen = [False] * n
    comps: list[tuple[list[int], bool]] = []
    for start in range(n):
        if seen[start] or len(adj[start]) == 0:
            if not seen[start] and len(adj[start]) == 0:
                seen[start] = True
            continue
        if len(adj[start]) > 2:
            raise SolverError("paths/cycles solver called with degree > 2")
        if len(adj[start]) == 2:
            continue  # handle path endpoints first; cycles in second pass
        # start is a path endpoint (degree 1).
        path = [start]
        seen[start] = True
        prev, cur = start, next(iter(adj[start]))
        while True:
            path.append(cur)
            seen[cur] = True
            nxt = [u for u in adj[cur] if u != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
        comps.append((path, False))
    # Remaining unseen vertices with degree 2 belong to cycles.
    for start in range(n):
        if seen[start] or len(adj[start]) == 0:
            continue
        cycle = [start]
        seen[start] = True
        prev, cur = start, min(adj[start])
        while cur != start:
            cycle.append(cur)
            seen[cur] = True
            nxt = [u for u in adj[cur] if u != prev]
            if not nxt:
                raise SolverError("inconsistent degree-2 structure")
            prev, cur = cur, nxt[0]
        comps.append((cycle, True))
    return comps


def vc_paths_and_cycles(adj: list[set]) -> list[int]:
    """A minimum vertex cover of a max-degree-2 graph.

    Paths: take every second vertex starting from the second.  Cycles:
    take every second vertex starting from the second, plus the last when
    the cycle is odd.  A cycle is walked from its smallest id towards that
    vertex's smallest neighbour, so the cover does not depend on the
    iteration order of the sets.
    """
    cover: list[int] = []
    for comp, is_cycle in _components_deg_le2(adj):
        if is_cycle:
            cover.extend(comp[1::2])
            if len(comp) % 2 == 1:
                cover.append(comp[-1])
        else:
            cover.extend(comp[1::2])
    return cover
