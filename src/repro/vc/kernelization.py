"""Kernelization rules for k-vertex cover (§IV-E).

Implements, in the paper's scope, the rules that never merge vertices:

* **degree-0** — isolated vertices leave the instance.
* **degree-1** — a pendant vertex's unique neighbor joins the cover.
* **Buss rule** — any vertex of degree > k must join the cover (otherwise
  all of its > k neighbors would have to).
* **degree-2, triangle case** — if v's two neighbors u, w are adjacent,
  then {u, w} joins the cover.
* **Buss size bound** — after exhaustive application, a yes-instance has at
  most k^2 edges and k^2 + k vertices of positive degree; exceeding either
  proves infeasibility.

``kernelize_in_place`` is the kernel the branch-and-bound runs at every
node.  It rewrites the entries of the list it is given but never discards
from a neighbour set it has not copied first, so the sets themselves may be
shared with other lists (the parent node, the sibling branch).
``kernelize`` is the non-mutating form: one copy of every set, then the
in-place kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress, cycle

from ..instrument import Counters


@dataclass
class KernelResult:
    """Outcome of kernelization.

    ``feasible`` false means the instance is a proven no-instance.  When
    feasible, ``adj`` is the residual instance (same vertex ids, covered or
    removed vertices have empty adjacency), ``forced`` lists vertices that
    every cover of size <= k must (or may safely) contain, and ``k`` is the
    residual budget.  ``dirty`` holds the ids whose sets the kernel copied
    and then discarded from.
    """

    feasible: bool
    adj: list[set] = field(default_factory=list)
    forced: list[int] = field(default_factory=list)
    k: int = 0
    dirty: set[int] = field(default_factory=set)


def _remove_vertex(work: list[set], dirty: set[int], v: int) -> None:
    for u in work[v]:
        if u not in dirty:
            # Copy-on-write: the set may be shared with another list.
            work[u] = set(work[u])
            dirty.add(u)
        work[u].discard(v)
    work[v] = set()


def kernelize_in_place(work: list[set], k: int,
                       counters: Counters | None = None) -> KernelResult:
    """Apply all rules to a fixpoint on the list ``work``.

    The list is rewritten in place, but no set in it is discarded from
    until the kernel has copied it (those ids are listed in ``dirty``), so
    its sets may be shared with other lists.  The vertices of positive
    degree are visited cyclically in id order, applying the rule that fits
    the current degree, until every one of them has been visited once since
    the last change.  That applies the rules in the order repeated full
    rounds over ``range(n)`` would (a vertex of degree 0 never changes),
    less the last round, which would change nothing.  Every change lowers
    k, so there are at most (k + 2) * n visits.
    """
    if k < 0:
        return KernelResult(feasible=False)
    forced: list[int] = []
    dirty: set[int] = set()
    alive = list(compress(range(len(work)), work))
    m = len(alive)
    idle = 0
    for v in cycle(alive):
        s = work[v]
        d = len(s)
        if d > k:
            # Buss rule: v must be in every cover of size <= k.
            take = (v,)
        elif d == 1:
            # Pendant: take the neighbor (never worse than taking v).
            take = tuple(s)
        elif d == 2:
            # Triangle: some optimal cover contains both neighbors.
            u, w = s
            take = (u, w) if u in work[w] else ()
        else:
            take = ()
        if not take:
            idle += 1
            if idle == m:
                break
            continue
        idle = 0
        for u in take:
            forced.append(u)
            _remove_vertex(work, dirty, u)
        k -= len(take)
        if counters is not None:
            counters.kernel_reductions += 1
        if k < 0:
            return KernelResult(feasible=False)

    # Buss size bound on the residual kernel: after the Buss rule every
    # degree is <= k, so a cover of size <= k covers at most k^2 edges and
    # the kernel has at most k^2 + k non-isolated vertices.
    if sum(map(len, work)) // 2 > k * k or sum(map(bool, work)) > k * k + k:
        return KernelResult(feasible=False)
    return KernelResult(feasible=True, adj=work, forced=forced, k=k,
                        dirty=dirty)


def kernelize(adj: list[set], k: int,
              counters: Counters | None = None) -> KernelResult:
    """Apply all rules to a fixpoint; ``adj`` is not mutated.

    The residual instance is built on fresh copies of ``adj``'s sets.
    """
    return kernelize_in_place([set(s) for s in adj], k, counters)
