"""Induced subgraphs and density.

``NeighborSearch`` (Alg. 8) cuts out the subgraph induced by a filtered
candidate set before handing it to the MC or k-VC sub-solver; the density of
that subgraph drives the algorithmic choice (§IV-E).  The sub-solvers read
it as one Python-int bitmask per candidate (:func:`induced_masks`), built
with a constant number of numpy calls per block of rows.
"""

from __future__ import annotations

import threading

import numpy as np

from ..errors import GraphConstructionError
from .csr import CSRGraph, INDPTR_DTYPE, VERTEX_DTYPE

#: Cap on the transient k x k bit matrix :func:`induced_masks` scatters
#: into: rows are packed in blocks of at most this many matrix bytes (one
#: block up to k = 1024).
_MASK_BLOCK_BYTES = 1 << 20

#: Per-thread home of :func:`induced_masks`' id -> position table.
_scratch = threading.local()


def induced_subgraph(graph: CSRGraph, vertices: np.ndarray) -> CSRGraph:
    """Subgraph induced by ``vertices`` (distinct original ids).

    Local vertex ``i`` corresponds to ``vertices[i]``; the input order is
    preserved, so callers control the local labelling (the systematic
    search passes candidates in relabelled order, keeping right-neighborhood
    semantics intact inside the sub-solve).
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    if len(np.unique(vertices)) != len(vertices):
        raise GraphConstructionError("induced vertex set contains duplicates")
    k = len(vertices)
    local = np.full(graph.n, -1, dtype=np.int64)
    local[vertices] = np.arange(k, dtype=np.int64)

    rows = []
    indptr = np.zeros(k + 1, dtype=INDPTR_DTYPE)
    for i, v in enumerate(vertices):
        nbrs = local[graph.neighbors(int(v))]
        nbrs = nbrs[nbrs >= 0]
        nbrs.sort()
        rows.append(nbrs.astype(VERTEX_DTYPE))
        indptr[i + 1] = indptr[i] + len(nbrs)
    indices = np.concatenate(rows) if rows else np.empty(0, dtype=VERTEX_DTYPE)
    return CSRGraph(indptr, indices, validate=False)


def induced_adjacency_sets(graph: CSRGraph, vertices: np.ndarray) -> list[set]:
    """Induced adjacency as Python sets over local ids.

    The small-subgraph branch-and-bound solvers (Tomita MC, k-VC) work on
    set adjacency because their hot operations are membership and set
    difference on sets of at most a few hundred elements.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    local = np.full(graph.n, -1, dtype=np.int64)
    local[vertices] = np.arange(len(vertices), dtype=np.int64)
    adj: list[set] = []
    for v in vertices:
        nbrs = local[graph.neighbors(int(v))]
        adj.append(set(int(x) for x in nbrs[nbrs >= 0]))
    return adj


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


def subgraph_density(graph: CSRGraph, vertices: np.ndarray) -> float:
    """Density of the induced subgraph, without materializing it.

    Counts induced edges with one vectorized membership test per candidate
    row (``2m`` work) — the same pass filter 3 of Alg. 8 performs, which is
    why LazyMC gets the density estimate :math:`\\hat m` for free.
    """
    vertices = np.asarray(vertices, dtype=np.int64)
    k = len(vertices)
    if k < 2:
        return 0.0
    member = np.zeros(graph.n, dtype=bool)
    member[vertices] = True
    twice_m = 0
    for v in vertices:
        twice_m += int(member[graph.neighbors(int(v))].sum())
    return twice_m / (k * (k - 1))


def edges_within(graph: CSRGraph, vertices: np.ndarray) -> int:
    """Number of edges of ``graph`` with both endpoints in ``vertices``."""
    vertices = np.asarray(vertices, dtype=np.int64)
    member = np.zeros(graph.n, dtype=bool)
    member[vertices] = True
    twice_m = 0
    for v in vertices:
        twice_m += int(member[graph.neighbors(int(v))].sum())
    return twice_m // 2
