"""Greedy graph coloring for clique upper bounds (Babel & Tinhofer).

A proper coloring with k colors proves no clique larger than k exists in the
colored subgraph, so the search can be cut when
``|C| + colors(G[P]) <= |C*|`` (§II-A).  The MCQ-style solver colors with
:func:`color_sort`, which returns the *color-sorted* candidate order:
processing candidates in decreasing color number makes the per-vertex bound
``|C| + color(v)`` monotone, so one failed test prunes the whole remainder
of the candidate list.
"""

from __future__ import annotations

from ..instrument import Counters


def color_sort(adj: list[set], candidates: list[int],
               counters: Counters | None = None) -> tuple[list[int], list[int]]:
    """Tomita's NUMBER-SORT: color classes assigned greedily, candidates
    returned sorted by ascending color.

    Returns ``(ordered, colors)`` where ``colors[i]`` is the (1-based) color
    of ``ordered[i]`` and colors are non-decreasing.  ``|C| + colors[i]`` is
    a valid upper bound for any clique through ``ordered[i]`` within
    ``candidates[i:]``.
    """
    color_classes: list[list[int]] = []
    probes = 0
    for v in candidates:
        placed = False
        av = adj[v]
        for cls in color_classes:
            # v joins the first class containing no neighbor of v.  Probe
            # count is the real work: one membership test per scanned
            # class member until a conflict.
            conflict = False
            for u in cls:
                probes += 1
                if u in av:
                    conflict = True
                    break
            if not conflict:
                cls.append(v)
                placed = True
                break
        if not placed:
            color_classes.append([v])
    ordered: list[int] = []
    colors: list[int] = []
    for ci, cls in enumerate(color_classes, start=1):
        for v in cls:
            ordered.append(v)
            colors.append(ci)
    if counters is not None:
        counters.colorings += 1
        counters.elements_scanned += probes
    return ordered, colors
