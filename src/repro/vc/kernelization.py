"""Kernelization rules for k-vertex cover (§IV-E).

Implements, in the paper's scope, the rules that never merge vertices:

* **degree-0** — isolated vertices leave the instance.
* **degree-1** — a pendant vertex's unique neighbor joins the cover.
* **Buss rule** — any vertex of degree > k must join the cover (otherwise
  all of its > k neighbors would have to).
* **degree-2, triangle case** — if v's two neighbors u, w are adjacent,
  then {u, w} joins the cover.
* **Buss size bound** — after exhaustive application, a yes-instance has at
  most k^2 + k edges and k^2 vertices of positive degree; exceeding either
  proves infeasibility.

The kernelizer mutates a working copy of the adjacency and reports the
forced cover vertices plus the residual budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..instrument import Counters


@dataclass
class KernelResult:
    """Outcome of kernelization.

    ``feasible`` false means the instance is a proven no-instance.  When
    feasible, ``adj`` is the residual instance (same vertex ids, covered or
    removed vertices have empty adjacency), ``forced`` lists vertices that
    every cover of size <= k must (or may safely) contain, and ``k`` is the
    residual budget.
    """

    feasible: bool
    adj: list[set] = field(default_factory=list)
    forced: list[int] = field(default_factory=list)
    k: int = 0


def _remove_vertex(adj: list[set], v: int) -> None:
    for u in adj[v]:
        adj[u].discard(v)
    adj[v] = set()


def kernelize(adj: list[set], k: int,
              counters: Counters | None = None) -> KernelResult:
    """Apply all rules to a fixpoint.

    ``adj`` is not mutated; a working copy is made.  Each round scans every
    vertex id in order and applies the rule that fits the vertex's current
    degree.  Rounds repeat until one changes nothing: a round costs
    O(n + sum degree), and every changing round lowers k, so there are at
    most k + 2 rounds.
    """
    work = [set(s) for s in adj]
    forced: list[int] = []
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
                # Buss rule: v must be in every cover of size <= k.
                forced.append(v)
                _remove_vertex(work, v)
                k -= 1
                changed = True
                if counters is not None:
                    counters.kernel_reductions += 1
                if k < 0:
                    return KernelResult(feasible=False)
            elif d == 1:
                # Pendant: take the neighbor (never worse than taking v).
                u = next(iter(work[v]))
                forced.append(u)
                _remove_vertex(work, u)
                k -= 1
                changed = True
                if counters is not None:
                    counters.kernel_reductions += 1
                if k < 0:
                    return KernelResult(feasible=False)
            elif d == 2:
                u, w = tuple(work[v])
                if u in work[w]:
                    # Triangle: some optimal cover contains {u, w}.
                    forced.append(u)
                    forced.append(w)
                    _remove_vertex(work, u)
                    _remove_vertex(work, w)
                    k -= 2
                    changed = True
                    if counters is not None:
                        counters.kernel_reductions += 1
                    if k < 0:
                        return KernelResult(feasible=False)

    # Buss size bound on the residual kernel: after the Buss rule every
    # degree is <= k, so a cover of size <= k covers at most k^2 edges and
    # the kernel has at most k^2 + k non-isolated vertices.
    edges = sum(len(s) for s in work) // 2
    positive = sum(1 for s in work if s)
    if edges > k * k or positive > k * k + k:
        return KernelResult(feasible=False)
    return KernelResult(feasible=True, adj=work, forced=forced, k=k)
