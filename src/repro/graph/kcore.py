"""k-core decomposition and degeneracy.

Two peels share one definition of coreness:

* :func:`peeling_order` is Matula & Beck's linear-time peel with the
  classic bucket data structure (``bin_start`` / ``pos`` / ``vert``
  arrays).  Its order is the degeneracy order used by most MC solvers: it
  guarantees every right-neighborhood has size at most the coreness of
  its vertex (Eppstein et al.).  The baselines use it; the buckets are set
  up with numpy and the peel runs on Python lists.
* :func:`coreness_degree_filtered` is Alg. 1 line 4, the coreness LazyMC
  sorts by (§IV-F).  Vertices whose degree is below the incumbent-clique
  lower bound are dropped before the decomposition, and only the rows of
  the survivors are read: the work follows the zone of interest, not
  |V|.  It peels level by level with whole-array numpy rounds and hands
  what a capped number of rounds leaves to the bucket peel.
"""

from __future__ import annotations

import numpy as np

from .csr import CSRGraph, VERTEX_DTYPE

#: Level-synchronous rounds before the rest goes to the bucket peel.  The
#: registry graphs need at most 40; a path would need n / 2, and the cap
#: keeps every input O(n + m).
MAX_ROUNDS = 64


def _peel(degrees: np.ndarray, indptr: np.ndarray,
          indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bucket peeling loop over a whole CSR graph.

    Returns ``(core, order)`` where ``core[v]`` is the coreness of ``v`` and
    ``order`` lists vertices in peeling (degeneracy) order.

    The bucket arrays are built with numpy; the peeling itself steps
    through Python lists, one element at a time, because numpy scalars
    cost several times a list item on each access.
    """
    n = len(degrees)
    if n == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    deg_arr = np.asarray(degrees, dtype=np.int64)

    # Bucket sort vertices by degree: a stable sort of the ids by degree
    # is the bucket fill in increasing id order.
    by_degree = np.argsort(deg_arr, kind="stable")
    bin_count = np.bincount(deg_arr, minlength=int(deg_arr.max()) + 2)
    bin_start = np.zeros(len(bin_count), dtype=np.int64)
    np.cumsum(bin_count[:-1], out=bin_start[1:])
    pos_arr = np.empty(n, dtype=np.int64)
    pos_arr[by_degree] = np.arange(n)

    deg = deg_arr.tolist()
    pos = pos_arr.tolist()
    vert = by_degree.tolist()
    bin_start = bin_start.tolist()
    bounds = indptr.tolist()
    core = [-1] * n
    # bin_start[d] = first index in vert of a vertex with current degree d.
    for i in range(n):
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


def _row_positions(indptr: np.ndarray,
                   rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(positions, lengths)``: where the rows ``rows`` lie in
    ``indices``, concatenated, and how long each row is."""
    starts = indptr[rows]
    lens = indptr[rows + 1] - starts
    ends = np.cumsum(lens)
    total = int(ends[-1]) if len(ends) else 0
    return np.repeat(starts - (ends - lens), lens) + np.arange(total), lens


def _induced_rows(indptr: np.ndarray, indices: np.ndarray,
                  rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR of the subgraph induced by ``rows``, in local ids.

    Reads only the rows of ``rows``; local id ``i`` is ``rows[i]``, so an
    ascending ``rows`` keeps every local row sorted.
    """
    local = np.full(len(indptr) - 1, -1, dtype=VERTEX_DTYPE)
    local[rows] = np.arange(len(rows), dtype=VERTEX_DTYPE)
    positions, lens = _row_positions(indptr, rows)
    targets = local[indices[positions]]
    del positions  # the largest temporary: gone before the next ones
    inside = targets >= 0
    owner = np.repeat(np.arange(len(rows), dtype=VERTEX_DTYPE), lens)
    sub_indptr = np.zeros(len(rows) + 1, dtype=indptr.dtype)
    np.cumsum(np.bincount(owner[inside], minlength=len(rows)),
              out=sub_indptr[1:])
    return sub_indptr, targets[inside]


def _level_peel(indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Coreness of every vertex of a CSR graph, peeled level by level.

    Each round raises the level ``k`` to the least live degree if that is
    larger, and removes every live vertex whose live degree is at most
    ``k``.  After :data:`MAX_ROUNDS` rounds every live vertex is in the
    k-core and the live set holds the (k+1)-core, so the coreness of a
    live vertex is ``max(k, its coreness in G[live])``: the bucket peel
    finishes the rest on the compacted live subgraph.
    """
    nv = len(indptr) - 1
    core = np.full(nv, -1, dtype=np.int64)
    # Live degrees; a peeled vertex's is raised past every level, so the
    # rounds allocate nothing that lives longer than the round.
    deg = np.diff(indptr).astype(VERTEX_DTYPE)
    peeled_mark = np.iinfo(VERTEX_DTYPE).max
    left = nv
    level = 0
    for _ in range(MAX_ROUNDS):
        if left == 0:
            return core
        level = max(level, int(deg.min()))
        peeled = np.flatnonzero(deg <= level)
        core[peeled] = level
        deg[peeled] = peeled_mark
        left -= len(peeled)
        deg -= np.bincount(indices[_row_positions(indptr, peeled)[0]],
                           minlength=nv)
    live = np.flatnonzero(core < 0)
    if len(live):
        sub_indptr, sub_indices = _induced_rows(indptr, indices, live)
        rest, _ = _peel(np.diff(sub_indptr), sub_indptr, sub_indices)
        core[live] = np.maximum(rest, level)
    return core


def coreness(graph: CSRGraph) -> np.ndarray:
    """Coreness (k-core number) of every vertex, as ``int64``."""
    return coreness_degree_filtered(graph, 0)


def peeling_order(graph: CSRGraph) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(core, order)``: coreness and the degeneracy peeling order."""
    return _peel(graph.degrees, graph.indptr, graph.indices)


def coreness_degree_filtered(graph: CSRGraph, lower_bound: int) -> np.ndarray:
    """Alg. 1 line 4: the coreness of G[S0], with S0 = {v : d(v) >= lb}.

    The paper's cheap exclusion — one vectorized degree test, *not* a
    k-core fixpoint.  Vertices outside S0 get coreness ``-1``.  Vertices
    whose true coreness is >= ``lower_bound`` receive their exact coreness
    (the bound's core lies inside S0); the other survivors may receive an
    underestimate, which only ever filters *more* and never less.  Only
    S0's rows are read, so the cost is ``n + vol(S0)``: the degree test
    and each surviving row once.
    """
    if lower_bound <= 0:
        return _level_peel(graph.indptr, graph.indices)
    core = np.full(graph.n, -1, dtype=np.int64)
    survivors = np.flatnonzero(graph.degrees >= lower_bound)
    core[survivors] = _level_peel(
        *_induced_rows(graph.indptr, graph.indices, survivors))
    return core
