"""Graph complement (§II-B).

The algorithmic-choice path solves dense subgraphs through the k-vertex-
cover problem on the *complement*, which is sparse exactly when the
subgraph is dense — the whole point of the choice.  That path complements
the candidate subgraph's bitmasks (:func:`complement_masks`), one int
operation per vertex.  :func:`complement` is the CSR form for whole
graphs, an O(n^2) construction done with one vectorized ``setdiff1d`` per
row.
"""

from __future__ import annotations

import numpy as np

from .csr import CSRGraph, INDPTR_DTYPE, VERTEX_DTYPE


def complement(graph: CSRGraph) -> CSRGraph:
    """The simple complement: edge (u, v), u != v, iff absent in ``graph``."""
    n = graph.n
    all_ids = np.arange(n, dtype=VERTEX_DTYPE)
    indptr = np.zeros(n + 1, dtype=INDPTR_DTYPE)
    rows = []
    for v in range(n):
        nbrs = graph.neighbors(v)
        row = np.setdiff1d(all_ids, nbrs, assume_unique=True)
        row = row[row != v]
        rows.append(row)
        indptr[v + 1] = indptr[v] + len(row)
    indices = np.concatenate(rows) if rows else np.empty(0, dtype=VERTEX_DTYPE)
    return CSRGraph(indptr, indices, validate=False)


def complement_masks(masks: list[int]) -> list[int]:
    """The complement of a simple graph given as one neighbourhood bitmask
    per vertex (no mask holds its own bit): bit u of the result's mask v
    is set iff u != v and bit u of ``masks[v]`` is not."""
    full = (1 << len(masks)) - 1
    return [full ^ m ^ (1 << v) for v, m in enumerate(masks)]
