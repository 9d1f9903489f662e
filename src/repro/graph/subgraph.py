"""Induced subgraphs as bitmasks, and induced edge counts.

``NeighborSearch`` (Alg. 8) cuts out the subgraph induced by a filtered
candidate set before handing it to the MC or k-VC sub-solver; the density of
that subgraph drives the algorithmic choice (§IV-E).  The sub-solvers read
it as one Python-int bitmask per candidate (:func:`induced_masks`), built
with a constant number of numpy calls per block of rows.
"""

from __future__ import annotations

import threading

import numpy as np

from .csr import CSRGraph

#: Cap on the transient k x k bit matrix :func:`induced_masks` scatters
#: into: rows are packed in blocks of at most this many matrix bytes (one
#: block up to k = 1024).
_MASK_BLOCK_BYTES = 1 << 20

#: Per-thread home of :func:`induced_masks`' id -> position table.
_scratch = threading.local()


def _position_table(size: int) -> np.ndarray:
    """This thread's id -> position scratch table, at least ``size`` long.

    Every slot not in use holds -1.  The table only grows: a bigger one
    replaces it, all -1, so callers fill it after asking for it.
    """
    table = getattr(_scratch, "table", None)
    if table is None or len(table) < size:
        table = np.full(size, -1, dtype=np.int64)
        _scratch.table = table
    return table


def induced_masks(rows: list[np.ndarray], candidates) -> list[int]:
    """The subgraph induced by ``candidates`` as one bitmask per candidate.

    ``rows[i]`` holds the neighbours of ``candidates[i]`` (distinct ids, in
    any order); bit j of mask i is set iff ``candidates[j]`` is in
    ``rows[i]``.  The candidates may come in any order.  Per block of rows
    the work is a fixed number of numpy calls, whatever the row lengths:
    positions by one gather through an id -> position table, a scatter
    into a bool matrix, ``packbits`` and one ``int.from_bytes`` per row.
    The table is per-thread scratch sized to the largest candidate id
    seen; a call sets and afterwards resets only its k candidate slots,
    so its cost is O(k + the row lengths), not O(ids).
    """
    cand = np.asarray(candidates, dtype=np.int64)
    k = len(cand)
    if k == 0:
        return []
    # One slot past the largest candidate stays -1: the clipped gather
    # maps every larger row id there.
    table = _position_table(int(cand.max()) + 2)
    table[cand] = np.arange(k)
    try:
        width = (k + 7) // 8
        step = max(1, _MASK_BLOCK_BYTES // k)
        masks: list[int] = []
        for start in range(0, k, step):
            block = rows[start:start + step]
            pos = table.take(np.concatenate(block), mode="clip")
            hit = pos >= 0
            owner = np.repeat(np.arange(0, len(block) * k, k),
                              [len(r) for r in block])
            bits = np.zeros(len(block) * k, dtype=np.bool_)
            bits[owner[hit] + pos[hit]] = True
            data = np.packbits(bits.reshape(len(block), k), axis=1,
                               bitorder="little").tobytes()
            masks.extend(int.from_bytes(data[i:i + width], "little")
                         for i in range(0, len(data), width))
    finally:
        table[cand] = -1
    return masks


def edges_within(graph: CSRGraph, vertices: np.ndarray) -> int:
    """Number of edges of ``graph`` with both endpoints in ``vertices``."""
    vertices = np.asarray(vertices, dtype=np.int64)
    member = np.zeros(graph.n, dtype=bool)
    member[vertices] = True
    twice_m = 0
    for v in vertices:
        twice_m += int(member[graph.neighbors(int(v))].sum())
    return twice_m // 2
