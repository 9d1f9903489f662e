"""Vertex orderings and relabelling (§IV-F).

:func:`coreness_degree_order` is the paper's parallel-friendly order: sort
by increasing coreness with ties broken by increasing degree.  The paper
computes it with SAPCo sort (a parallel counting sort by degree) followed
by a stable counting sort by coreness; we implement that two-phase
pipeline with a stable argsort per phase (vectorized rather than
multithreaded — a stable sort by the same keys yields the same
permutation as the stable counting sort, sequential or parallel).  The
sequential Matula-Beck peeling order is
:func:`repro.graph.kcore.peeling_order`.

A :class:`VertexOrder` packages the bidirectional permutation so that the
lazy graph can remap between original and relabelled ids in O(1) per vertex.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csr import CSRGraph, INDPTR_DTYPE, VERTEX_DTYPE


@dataclass(frozen=True)
class VertexOrder:
    """Bidirectional vertex relabelling.

    ``new_to_old[i]`` is the original id of relabelled vertex ``i``;
    ``old_to_new`` is its inverse.  Relabelled ids are assigned so that
    "larger id" means "later in the order" — right-neighborhoods in the
    relabelled graph are simply neighbors with a larger id.
    """

    new_to_old: np.ndarray
    old_to_new: np.ndarray

    @staticmethod
    def from_sequence(order: np.ndarray) -> "VertexOrder":
        order = np.asarray(order, dtype=np.int64)
        inverse = np.empty_like(order)
        inverse[order] = np.arange(len(order), dtype=np.int64)
        return VertexOrder(new_to_old=order, old_to_new=inverse)

    @property
    def n(self) -> int:
        return len(self.new_to_old)

    def relabelled_to_original(self, v: int) -> int:
        """Original id of relabelled vertex ``v``."""
        return int(self.new_to_old[v])

    def original_to_relabelled(self, v: int) -> int:
        """Relabelled id of original vertex ``v``."""
        return int(self.old_to_new[v])

    def permute_values(self, values_by_old: np.ndarray) -> np.ndarray:
        """Reindex a per-vertex array from original ids to relabelled ids."""
        return np.asarray(values_by_old)[self.new_to_old]


def _counting_sort_stable(keys: np.ndarray, items: np.ndarray) -> np.ndarray:
    """Stable sort of ``items`` by small non-negative ``keys``.

    One SAPCo-sort phase is a stable counting sort: a histogram, a prefix
    sum, and a scatter in input order.  A stable argsort by the same keys
    yields the same permutation, since stability fixes the order of equal
    keys in both.  Stability is also what makes chaining two phases
    equivalent to a lexicographic sort.
    """
    return items[np.argsort(keys, kind="stable")]


def coreness_degree_order(graph: CSRGraph, core: np.ndarray) -> VertexOrder:
    """Sort by (coreness, degree), both increasing — the paper's order.

    Vertices with negative coreness (dropped by the degree-filtered k-core
    computation) come first, in id order: they are never searched, so
    their position only needs to be consistent, and the block keeping its
    size keeps every other vertex's relabelled id.  The rest, S0, is
    sorted by two chained stable sorts (degree first, then coreness),
    which give the permutation of the SAPCo-sort + stable-counting-sort
    pipeline of §IV-F; the work is ``2|S0|``, not ``2n``.
    """
    core = np.asarray(core)
    kept = core >= 0
    survivors = np.flatnonzero(kept)
    by_degree = _counting_sort_stable(graph.degrees[survivors], survivors)
    final = _counting_sort_stable(core[by_degree], by_degree)
    return VertexOrder.from_sequence(
        np.concatenate([np.flatnonzero(~kept), final]))


def relabel_graph(graph: CSRGraph, order: VertexOrder) -> CSRGraph:
    """Materialize the fully relabelled graph (the *eager* alternative).

    The lazy graph of Alg. 2 avoids this whole-graph pass; this function
    exists for the eager baselines (PMC-style) and for tests.  The gather
    ``old_to_new[indices]`` is the random-access-heavy step the paper's
    laziness is designed to avoid.
    """
    new_indptr = np.zeros(graph.n + 1, dtype=INDPTR_DTYPE)
    degs = graph.degrees[order.new_to_old]
    np.cumsum(degs, out=new_indptr[1:])
    new_indices = np.empty(len(graph.indices), dtype=VERTEX_DTYPE)
    for v_new in range(graph.n):
        v_old = order.new_to_old[v_new]
        row = order.old_to_new[graph.neighbors(int(v_old))]
        row.sort()
        new_indices[new_indptr[v_new]:new_indptr[v_new + 1]] = row
    return CSRGraph(new_indptr, new_indices, validate=False)
