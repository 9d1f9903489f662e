"""k-core decomposition and degeneracy.

Implements Matula & Beck's linear-time peeling algorithm with the classic
bucket data structure (``bin_start`` / ``pos`` / ``vert`` arrays).  The
peeling order it produces is the degeneracy order used by most MC solvers:
it guarantees every right-neighborhood has size at most the coreness of its
vertex (Eppstein et al.), which is why the paper sorts by (coreness, degree)
for its parallel-friendly variant (§IV-F).  The buckets are set up with
numpy and the peel runs on Python lists.

Also provides the *degree-filtered* coreness of Alg. 1 line 4: vertices
whose degree is below the incumbent-clique lower bound are excluded before
the decomposition proper, which both speeds the computation up and marks
those vertices as outside the zone of interest.
"""

from __future__ import annotations

import numpy as np

from .csr import CSRGraph


def _peel(degrees: np.ndarray, indptr: np.ndarray, indices: np.ndarray,
          alive: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Core peeling loop.

    Returns ``(core, order)`` where ``core[v]`` is the coreness of ``v`` and
    ``order`` lists vertices in peeling (degeneracy) order.  Vertices with
    ``alive[v] == False`` are excluded entirely (coreness -1, absent from
    the order).

    The bucket arrays are built with numpy; the peeling itself steps
    through Python lists, one element at a time, because numpy scalars
    cost several times a list item on each access.
    """
    n = len(degrees)
    if alive is None:
        ids = np.arange(n)
        deg_arr = np.asarray(degrees, dtype=np.int64)
    else:
        ids = np.flatnonzero(alive)
        # Degrees restricted to the alive subgraph: counting edges to
        # excluded vertices would inflate coreness values.  Excluded
        # vertices get degree 0 and position -1, so the peel never moves
        # them.
        sources = np.repeat(np.arange(n), np.diff(indptr))
        both = alive[sources] & alive[indices]
        deg_arr = np.bincount(sources[both], minlength=n)
    nv = len(ids)
    if nv == 0:
        return np.full(n, -1, dtype=np.int64), np.empty(0, dtype=np.int64)

    # Bucket sort vertices by current degree: a stable sort of the alive
    # ids by degree is the bucket fill in increasing id order.
    alive_deg = deg_arr[ids]
    by_degree = ids[np.argsort(alive_deg, kind="stable")]
    bin_count = np.bincount(alive_deg, minlength=int(alive_deg.max()) + 2)
    bin_start = np.zeros(len(bin_count), dtype=np.int64)
    np.cumsum(bin_count[:-1], out=bin_start[1:])
    pos_arr = np.full(n, -1, dtype=np.int64)
    pos_arr[by_degree] = np.arange(nv)

    deg = deg_arr.tolist()
    pos = pos_arr.tolist()
    vert = by_degree.tolist()
    bin_start = bin_start.tolist()
    bounds = indptr.tolist()
    core = [-1] * n
    # bin_start[d] = first index in vert of a vertex with current degree d.
    for i in range(nv):
        v = vert[i]
        dv = deg[v]
        core[v] = dv
        # Decrement the degree of each still-unpeeled neighbor, moving it
        # one bucket down by swapping it with the first vertex of its bucket.
        for u in indices[bounds[v]:bounds[v + 1]].tolist():
            du = deg[u]
            if du > dv and pos[u] > i:
                pu = pos[u]
                pw = bin_start[du]
                # Never swap below the frontier of already-peeled vertices.
                if pw <= i:
                    pw = i + 1
                w = vert[pw]
                if u != w:
                    vert[pu], vert[pw] = w, u
                    pos[u], pos[w] = pw, pu
                bin_start[du] = pw + 1
                deg[u] = du - 1
    # Swaps only touch positions past the frontier, so ``vert`` is now the
    # peeling order.  Coreness must be the running maximum along it: a
    # vertex peeled after another cannot have smaller coreness than the
    # max so far.
    running = 0
    for v in vert:
        if core[v] < running:
            core[v] = running
        else:
            running = core[v]
    return np.array(core, dtype=np.int64), np.array(vert, dtype=np.int64)


def coreness(graph: CSRGraph) -> np.ndarray:
    """Coreness (k-core number) of every vertex, as ``int64``."""
    core, _ = _peel(graph.degrees, graph.indptr, graph.indices)
    return core


def peeling_order(graph: CSRGraph) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(core, order)``: coreness and the degeneracy peeling order."""
    return _peel(graph.degrees, graph.indptr, graph.indices)


def coreness_degree_filtered(graph: CSRGraph, lower_bound: int) -> np.ndarray:
    """Alg. 1 line 4 exactly: coreness of v if ``d(v) >= lower_bound``.

    The paper's cheap exclusion — one vectorized degree test, *not* a
    k-core fixpoint.  Vertices below the degree bound get coreness ``-1``.
    Surviving vertices whose true coreness is >= ``lower_bound`` receive
    their exact coreness (the bound's core is contained in the filtered
    subgraph); survivors with smaller true coreness may receive an
    underestimate, which only ever filters *more* and never less.
    """
    if lower_bound <= 0:
        return coreness(graph)
    alive = graph.degrees >= lower_bound
    core, _ = _peel(graph.degrees, graph.indptr, graph.indices, alive=alive)
    return core
