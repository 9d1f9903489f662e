"""Graph construction helpers.

All builders normalize their input to the :class:`~repro.graph.csr.CSRGraph`
invariants: undirected, simple, sorted rows.  Construction is fully
vectorized — duplicate removal, symmetrization and row sorting are done with
one sort of a single ``src * n + dst`` key per directed edge rather than
per-row Python loops.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ..errors import GraphConstructionError
from .csr import CSRGraph, INDPTR_DTYPE, VERTEX_DTYPE


def _csr_from_directed(n: int, src: np.ndarray, dst: np.ndarray) -> CSRGraph:
    """Build a CSR graph from an already-symmetric directed edge array.

    Each edge becomes the key ``src * n + dst``: sorting the keys orders the
    edges by row and then by neighbor, and equal neighbours are adjacent.
    With ``n <= MAX_VERTICES = 2**31`` every key is below ``2**62``.
    """
    key = np.multiply(src, n, dtype=np.int64)
    key += dst
    key.sort()
    if len(key):
        keep = np.empty(len(key), dtype=bool)
        keep[0] = True
        np.not_equal(key[1:], key[:-1], out=keep[1:])
        key = key[keep]
    src, dst = np.divmod(key, n)
    counts = np.bincount(src, minlength=n).astype(INDPTR_DTYPE)
    indptr = np.zeros(n + 1, dtype=INDPTR_DTYPE)
    np.cumsum(counts, out=indptr[1:])
    return CSRGraph(indptr, dst.astype(VERTEX_DTYPE), validate=False)


#: Vertex ids are stored as ``VERTEX_DTYPE``: a graph has at most this
#: many vertices.
MAX_VERTICES = int(np.iinfo(VERTEX_DTYPE).max) + 1


def check_vertex_count(n: int) -> int:
    """Return ``n``, or raise when no graph can have ``n`` vertices.

    Loaders call this with the vertex count a file or request implies,
    before anything sized by it is allocated or converted to numpy: an
    absurd id must be a typed error, not an out-of-memory crash.
    """
    if not 0 <= n <= MAX_VERTICES:
        raise GraphConstructionError(
            f"{n} vertices is outside the supported range [0, {MAX_VERTICES}]"
            f" (vertex ids are {np.dtype(VERTEX_DTYPE).name})")
    return n


def _edge_array(edges: Iterable[tuple[int, int]] | np.ndarray) -> np.ndarray:
    """``edges`` as an int64 array; an array or a list converts in one call.

    Only a one-shot iterable is listed first: ``list()`` of an ``(m, 2)``
    array would split it into ``m`` row arrays for numpy to stack again.
    """
    if not isinstance(edges, (np.ndarray, list, tuple)):
        edges = list(edges)
    return np.asarray(edges, dtype=np.int64)


def from_edges(n: int, edges: Iterable[tuple[int, int]] | np.ndarray) -> CSRGraph:
    """Build a graph on vertices ``0..n-1`` from an edge iterable.

    Self-loops are dropped; duplicate and reversed duplicates collapse to a
    single undirected edge.  Raises on an out-of-range ``n`` (see
    :func:`check_vertex_count`) or out-of-range endpoints.
    """
    check_vertex_count(n)
    arr = _edge_array(edges)
    if arr.size == 0:
        return CSRGraph(np.zeros(n + 1, dtype=INDPTR_DTYPE),
                        np.empty(0, dtype=VERTEX_DTYPE), validate=False)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise GraphConstructionError("edges must be pairs")
    if arr.min() < 0 or arr.max() >= n:
        raise GraphConstructionError(f"edge endpoint out of range [0, {n})")
    arr = arr[arr[:, 0] != arr[:, 1]]  # drop self-loops
    src = np.concatenate([arr[:, 0], arr[:, 1]])
    dst = np.concatenate([arr[:, 1], arr[:, 0]])
    return _csr_from_directed(n, src, dst)


def from_adjacency(adjacency: Sequence[Iterable[int]]) -> CSRGraph:
    """Build a graph from per-vertex neighbor iterables.

    The adjacency need not be symmetric or deduplicated; it is normalized.
    """
    n = len(adjacency)
    edges = [(u, v) for u, nbrs in enumerate(adjacency) for v in nbrs]
    return from_edges(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2))


def empty_graph(n: int) -> CSRGraph:
    """Graph with ``n`` vertices and no edges."""
    return from_edges(n, np.empty((0, 2), dtype=np.int64))


def complete_graph(n: int) -> CSRGraph:
    """The clique :math:`K_n`."""
    if n <= 1:
        return empty_graph(max(n, 0))
    u, v = np.triu_indices(n, k=1)
    return from_edges(n, np.stack([u, v], axis=1))


def add_edges(g: CSRGraph, edges: Iterable[tuple[int, int]]) -> CSRGraph:
    """Return a new graph with ``edges`` added (duplicates are harmless)."""
    extra = _edge_array(edges).reshape(-1, 2)
    base = g.edge_array().astype(np.int64)
    return from_edges(g.n, np.concatenate([base, extra]) if len(base) else extra)
