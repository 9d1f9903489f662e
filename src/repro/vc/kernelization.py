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

The kernel works on Python-int bitmasks: ``masks[v]`` is v's neighbourhood
and the int ``alive`` is the set of vertices still in the instance, so v's
degree is ``(masks[v] & alive).bit_count()`` and a vertex leaves by
clearing its bit in ``alive``.  Nothing is copied or mutated, and every
choice is made in id order, so the result does not depend on set iteration
order.  ``kernelize_masks`` is the kernel the branch-and-bound runs at
every node.
"""

from __future__ import annotations

from itertools import cycle

from ..instrument import Counters


def mask_ids(x: int) -> list[int]:
    """The ids of the set bits of ``x``, ascending."""
    ids = []
    while x:
        low = x & -x
        ids.append(low.bit_length() - 1)
        x ^= low
    return ids


def residual_adjacency(masks: list[int], alive: int,
                       verts: list[int]) -> list[set]:
    """The instance ``alive`` as sets over all ids; ``verts`` must list
    its vertices of positive degree."""
    adj: list[set] = [set() for _ in masks]
    for v in verts:
        adj[v] = set(mask_ids(masks[v] & alive))
    return adj


def kernelize_masks(masks: list[int], alive: int, k: int, verts: list[int],
                    counters: Counters | None = None):
    """Apply all rules to a fixpoint on the instance ``alive``.

    ``verts`` lists, ascending, every vertex of positive degree in the
    instance; it may also list vertices that have left it or lost their
    edges.  They are visited cyclically in id order, applying the rule that
    fits the current degree, until every one of them has been visited once
    since the last change.  Every change lowers k, so there are at most
    (k + 2) * len(verts) visits, and the last len(verts) of them read every
    final degree.

    Returns ``None`` for a proven no-instance.  Otherwise returns
    ``(alive, k, forced, verts, deg)``: the residual instance and budget,
    the vertices the rules put in the cover, the residual's vertices of
    positive degree (ascending) and ``deg``, a list over all ids holding
    their degrees and 0 elsewhere.
    """
    if k < 0:
        return None
    forced: list[int] = []
    deg = [0] * len(masks)
    size = len(verts)
    idle = 0
    for v in cycle(verts):
        nbrs = masks[v] & alive if alive >> v & 1 else 0
        d = deg[v] = nbrs.bit_count()
        if d > k:
            # Buss rule: v must be in every cover of size <= k.
            forced.append(v)
            alive ^= 1 << v
            k -= 1
        elif d == 1:
            # Pendant: take the neighbor (never worse than taking v).
            forced.append(nbrs.bit_length() - 1)
            alive ^= nbrs
            k -= 1
        elif d == 2 and masks[(nbrs & -nbrs).bit_length() - 1] & nbrs:
            # Triangle: some optimal cover contains both neighbors.
            forced.extend(mask_ids(nbrs))
            alive ^= nbrs
            k -= 2
        else:
            idle += 1
            if idle == size:
                break
            continue
        idle = 0
        if counters is not None:
            counters.kernel_reductions += 1
        if k < 0:
            return None

    verts = [v for v in verts if deg[v]]
    # Buss size bound on the residual kernel: after the Buss rule every
    # degree is <= k, so a cover of size <= k covers at most k^2 edges and
    # the kernel has at most k^2 + k non-isolated vertices.
    if sum(deg) // 2 > k * k or len(verts) > k * k + k:
        return None
    return alive, k, forced, verts, deg

