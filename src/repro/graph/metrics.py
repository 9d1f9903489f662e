"""Structural graph metrics.

Used by the dataset registry's fidelity checks (do the analogues exhibit
the structural features of their families?) and exposed as a public
profiling surface.  Everything is vectorized or O(m·d)-bounded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .csr import CSRGraph
from .kcore import coreness


def triangle_count(graph: CSRGraph) -> int:
    """Number of triangles, by forward (rank-ordered) adjacency merging.

    Standard m^(3/2)-style algorithm: orient edges from lower to higher
    degree (ties by id), count common out-neighbors per edge with sorted
    intersections.
    """
    n = graph.n
    rank = np.lexsort((np.arange(n), graph.degrees))
    pos = np.empty(n, dtype=np.int64)
    pos[rank] = np.arange(n)
    # Forward adjacency: u -> v iff pos[u] < pos[v].
    fwd: list[np.ndarray] = []
    for u in range(n):
        nbrs = graph.neighbors(u)
        out = nbrs[pos[nbrs] > pos[u]]
        fwd.append(np.sort(pos[out]))
    total = 0
    for u in range(n):
        pu = fwd[u]
        for v_rank in pu:
            pv = fwd[int(rank[v_rank])]
            if len(pu) and len(pv):
                idx = np.searchsorted(pv, pu)
                idx[idx >= len(pv)] = len(pv) - 1
                total += int(np.count_nonzero(pv[idx] == pu))
    return total


def global_clustering(graph: CSRGraph) -> float:
    """Transitivity: 3 * triangles / number of wedges (paths of length 2)."""
    deg = graph.degrees.astype(np.int64)
    wedges = int((deg * (deg - 1) // 2).sum())
    if wedges == 0:
        return 0.0
    return 3.0 * triangle_count(graph) / wedges


def degree_assortativity(graph: CSRGraph) -> float:
    """Pearson correlation of endpoint degrees over edges (Newman's r)."""
    if graph.m == 0:
        return 0.0
    edges = graph.edge_array()
    deg = graph.degrees.astype(np.float64)
    x = np.concatenate([deg[edges[:, 0]], deg[edges[:, 1]]])
    y = np.concatenate([deg[edges[:, 1]], deg[edges[:, 0]]])
    sx = x.std()
    if sx == 0:
        return 0.0
    return float(np.corrcoef(x, y)[0, 1])


@dataclass(frozen=True)
class GraphProfile:
    """One-call structural profile of a graph."""

    n: int
    m: int
    density: float
    max_degree: int
    mean_degree: float
    degeneracy: int
    triangles: int
    transitivity: float
    assortativity: float

    def __str__(self) -> str:
        return (f"n={self.n} m={self.m} density={self.density:.4f} "
                f"maxdeg={self.max_degree} meandeg={self.mean_degree:.2f} "
                f"d={self.degeneracy} triangles={self.triangles} "
                f"C={self.transitivity:.3f} r={self.assortativity:+.3f}")


def profile(graph: CSRGraph) -> GraphProfile:
    """Compute the full :class:`GraphProfile`."""
    core = coreness(graph)
    return GraphProfile(
        n=graph.n,
        m=graph.m,
        density=graph.density,
        max_degree=graph.max_degree(),
        mean_degree=2 * graph.m / graph.n if graph.n else 0.0,
        degeneracy=int(core.max()) if graph.n else 0,
        triangles=triangle_count(graph),
        transitivity=global_clustering(graph),
        assortativity=degree_assortativity(graph),
    )
