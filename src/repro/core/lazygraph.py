"""The lazy filtered hashed relabelled graph (Alg. 2, §IV-A).

Four ideas in one data structure:

* **Relabelled** — vertices carry the (coreness, degree) order's ids, so
  "right-neighborhood" is just "ids greater than mine"; the expensive
  gather through the permutation happens per neighborhood, not per query.
* **Lazy** — a neighborhood representation is built the first time it is
  asked for and memoized; unvisited vertices (the majority, §III-A) never
  pay relabelling or hashing.
* **Filtered** — at construction time, neighbors whose coreness is below
  the *current* incumbent size are dropped: they can never again matter.
  Representations built at different times may therefore differ in size;
  this is harmless because the dropped vertices are permanently dead to
  the search (§IV-A).
* **Hashed** — high-degree neighborhoods get a builtin ``set`` for O(1)
  membership in the intersection kernels, built from a sorted array kept
  beside it (its *twin*) for the loops that iterate the row; low-degree
  ones get the sorted array alone.  Both may coexist; intersections prefer
  the hash form.

Concurrency follows the paper: double-checked locking around construction,
with each representation read-only afterwards.  A representation exists
exactly when its slot in ``_hash_reps`` / ``_sorted_reps`` is not ``None``;
the slot is the flag, so the lock-free fast path is one list read.  Every
build goes through one gather (:meth:`LazyGraph._filtered_rows`), which
prepopulation (Fig. 4) runs once over the whole must subgraph and the lazy
builds run over one vertex.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from ..graph.ordering import VertexOrder
from ..instrument import Counters
from ..intersect.early_exit import SortedArraySet
from ..parallel.locks import StripedLocks
from .config import LazyMCConfig, PrepopulatePolicy


class LazyGraph:
    """Lazy filtered hashed relabelled view of ``graph``.

    All vertex ids exposed by this class are *relabelled* ids; use
    ``order`` to translate.  ``core`` is indexed by relabelled id and holds
    -1 for vertices excluded by the incumbent-bounded k-core computation.
    """

    def __init__(self, graph: CSRGraph, order: VertexOrder, core_original: np.ndarray,
                 config: LazyMCConfig | None = None,
                 counters: Counters | None = None):
        self.graph = graph
        self.order = order
        self.core = np.asarray(core_original)[order.new_to_old]
        # The query-time coreness filter reads one element at a time.
        self._core = self.core.tolist()
        self.config = config if config is not None else LazyMCConfig()
        self.counters = counters if counters is not None else Counters()
        n = graph.n
        self._hash_reps: list[set[int] | None] = [None] * n
        self._sorted_reps: list[np.ndarray | None] = [None] * n
        # The sorted array each hash set was built from, set before it.
        self._twins: list[np.ndarray | None] = [None] * n
        self._locks = StripedLocks(64)
        # Degrees in relabelled space (original degrees permuted).
        self.degrees = graph.degrees[order.new_to_old]

    # -- pickling (process-engine worker context) ---------------------------------

    def __getstate__(self) -> dict:
        # Thread locks cannot cross a process boundary; the memoized
        # representations can (and should — shipping them saves every
        # worker the rebuild).  Workers get fresh locks on arrival.
        state = self.__dict__.copy()
        state["_locks"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._locks = StripedLocks(64)

    # -- construction -------------------------------------------------------------

    def _filtered_rows(self, vertices, min_core: int) -> list[np.ndarray]:
        """Gather, relabel, coreness-filter and sort the rows of ``vertices``.

        This is the expensive random-access step laziness amortizes: one
        gather through ``old_to_new`` per neighbor, then the lazy filter
        ``core[u] >= min_core`` (Alg. 2 line 20), then a sort.  All rows
        go through a fixed number of numpy calls, whatever their count:
        CSR slices by repeat/cumsum, and one sort of ``owner * n + id``.
        Returns one sorted view per vertex, in ``vertices`` order.
        """
        n = self.graph.n
        orig = self.order.new_to_old[vertices]
        indptr = self.graph.indptr
        starts = indptr[orig]
        lengths = indptr[orig + 1] - starts
        owner = np.repeat(np.arange(len(orig)), lengths)
        # Gathered position p of row i reads indices[starts[i] + p - first],
        # where first is the position row i begins at in the gather.
        shift = starts - (np.cumsum(lengths) - lengths)
        nbrs = self.order.old_to_new[
            self.graph.indices[np.arange(len(owner)) + shift[owner]]]
        keep = self.core[nbrs] >= min_core
        owner = owner[keep]
        key = owner * n + nbrs[keep]
        key.sort()
        flat = key - owner * n
        ends = np.cumsum(np.bincount(owner, minlength=len(orig))).tolist()
        self.counters.elements_scanned += len(nbrs)
        self.counters.neighbors_filtered_at_build += len(nbrs) - len(flat)
        return [flat[a:b] for a, b in zip([0] + ends, ends)]

    def hashed_neighborhood(self, v: int, min_core: int = 0) -> set[int]:
        """Hash-set representation, built on first request (Alg. 2).

        ``min_core`` is the incumbent size at the requesting context; it is
        applied only if the representation does not exist yet.  The sorted
        row the set is built from stays as its twin.
        """
        rep = self._hash_reps[v]
        if rep is not None:
            return rep  # fast path, no lock
        with self._locks.lock_for(v):
            rep = self._hash_reps[v]
            if rep is None:  # double-checked
                row = self._filtered_rows([v], min_core)[0]
                self.counters.hash_inserts += len(row)
                self.counters.neighborhoods_built_hash += 1
                self._twins[v] = row
                rep = self._hash_reps[v] = set(row.tolist())
        return rep

    def sorted_neighborhood(self, v: int, min_core: int = 0) -> np.ndarray:
        """Sorted-array representation, built on first request."""
        rep = self._sorted_reps[v]
        if rep is not None:
            return rep
        with self._locks.lock_for(v):
            rep = self._sorted_reps[v]
            if rep is None:
                rep = self._filtered_rows([v], min_core)[0]
                self.counters.neighborhoods_built_sorted += 1
                self._sorted_reps[v] = rep
        return rep

    # -- representation choice (§IV-A) ------------------------------------------------

    def membership_set(self, v: int, min_core: int = 0):
        """Whichever representation supports ``in`` best for vertex ``v``.

        If both exist, the hash set wins; if neither exists, the degree
        rule decides which to build (hash above the threshold, sorted
        otherwise).
        """
        rep = self._hash_reps[v]
        if rep is not None:
            return rep
        arr = self._sorted_reps[v]
        if arr is not None:
            return SortedArraySet(arr)
        if self.degrees[v] > self.config.hash_degree_threshold:
            return self.hashed_neighborhood(v, min_core)
        return SortedArraySet(self.sorted_neighborhood(v, min_core))

    def neighborhood_array(self, v: int, min_core: int = 0) -> np.ndarray:
        """An iterable sorted array of the (constructed) neighborhood of ``v``.

        The sorted representation if one exists, else the hash set's twin,
        else a sorted representation built now.
        """
        arr = self._sorted_reps[v]
        if arr is not None:
            return arr
        arr = self._twins[v]
        if arr is not None:
            return arr
        return self.sorted_neighborhood(v, min_core)

    def right_neighborhood(self, v: int, min_core: int = 0) -> list[int]:
        """``[u in N(v) : u > v and core[u] >= min_core]``, ascending (Alg. 8
        line 2).

        Re-applies the coreness filter at query time because the memoized
        representation may have been built under a smaller incumbent.
        """
        arr = self.neighborhood_array(v, min_core)
        tail = arr[arr.searchsorted(v, "right"):].tolist()
        self.counters.elements_scanned += len(tail)
        core = self._core
        return [u for u in tail if core[u] >= min_core]

    # -- prepopulation (Fig. 4) -----------------------------------------------------

    def prepopulate(self, policy: PrepopulatePolicy, incumbent_size: int) -> int:
        """Eagerly build neighborhood representations per policy.

        ``MUST`` builds the must subgraph — vertices with coreness at least
        the incumbent size known after degree-based heuristic search (§V-C).
        Each vertex gets the representation the degree rule (§IV-A) would
        choose lazily: a hash set above ``hash_degree_threshold``, a sorted
        array otherwise — eager construction changes *when* a
        representation is built, never *which*, and the counters read as
        if each had been built lazily.  All rows come from one gather.
        Runs once, on a graph with nothing built yet and before any
        parfor, so it takes no locks.  Returns the number of
        neighborhoods built.
        """
        if policy == PrepopulatePolicy.NONE:
            return 0
        floor = 0 if policy == PrepopulatePolicy.ALL else incumbent_size
        targets = np.flatnonzero(self.core >= floor)
        hashed = (self.degrees[targets]
                  > self.config.hash_degree_threshold).tolist()
        rows = self._filtered_rows(targets, incumbent_size)
        n_hash = inserts = 0
        for v, row, h in zip(targets.tolist(), rows, hashed):
            if h:
                self._twins[v] = row
                self._hash_reps[v] = set(row.tolist())
                n_hash += 1
                inserts += len(row)
            else:
                self._sorted_reps[v] = row
        self.counters.hash_inserts += inserts
        self.counters.neighborhoods_built_hash += n_hash
        self.counters.neighborhoods_built_sorted += len(rows) - n_hash
        return len(rows)

    # -- bookkeeping ------------------------------------------------------------------

    @property
    def n(self) -> int:
        return self.graph.n

    def degeneracy(self) -> int:
        """Largest coreness among represented vertices."""
        return int(self.core.max()) if len(self.core) else 0

    def levels(self) -> dict[int, range]:
        """The relabelled ids of each non-empty coreness level >= 1.

        Ids ascend by coreness, so every level is a contiguous id range
        (the ids of coreness -1, excluded by the k-core computation, come
        first); two binary searches per level find it.
        """
        top = self.degeneracy()
        bounds = np.searchsorted(self.core, np.arange(top + 2)).tolist()
        return {k: range(bounds[k], bounds[k + 1])
                for k in range(1, top + 1) if bounds[k] < bounds[k + 1]}

    def built_counts(self) -> tuple[int, int]:
        """(hash, sorted) representation counts currently materialized."""
        return (sum(rep is not None for rep in self._hash_reps),
                sum(rep is not None for rep in self._sorted_reps))

    def to_original(self, vertices) -> list[int]:
        """Translate relabelled ids back to original graph ids."""
        return [int(self.order.new_to_old[v]) for v in vertices]
