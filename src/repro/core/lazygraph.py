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
  membership in the intersection kernels; low-degree ones get a sorted
  array.  Both may coexist; intersections prefer the hash form.

Concurrency follows the paper: double-checked locking around construction,
with each representation read-only afterwards.  A representation exists
exactly when its slot in ``_hash_reps`` / ``_sorted_reps`` is not ``None``;
the slot is the flag, so the lock-free fast path is one list read.
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
        self.config = config if config is not None else LazyMCConfig()
        self.counters = counters if counters is not None else Counters()
        n = graph.n
        self._hash_reps: list[set[int] | None] = [None] * n
        self._sorted_reps: list[np.ndarray | None] = [None] * n
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

    def _filtered_relabelled_neighbors(self, v: int, min_core: int) -> np.ndarray:
        """Gather + relabel + coreness-filter the raw neighborhood of ``v``.

        This is the expensive random-access step laziness amortizes: one
        gather through ``old_to_new`` per neighbor, then the lazy filter
        ``core[u] >= min_core`` (Alg. 2 line 20).
        """
        v_orig = int(self.order.new_to_old[v])
        nbrs_orig = self.graph.neighbors(v_orig)
        nbrs = self.order.old_to_new[nbrs_orig]
        keep = self.core[nbrs] >= min_core
        self.counters.elements_scanned += len(nbrs)
        self.counters.neighbors_filtered_at_build += int(len(nbrs) - keep.sum())
        return nbrs[keep]

    def hashed_neighborhood(self, v: int, min_core: int = 0) -> set[int]:
        """Hash-set representation, built on first request (Alg. 2).

        ``min_core`` is the incumbent size at the requesting context; it is
        applied only if the representation does not exist yet.
        """
        rep = self._hash_reps[v]
        if rep is not None:
            return rep  # fast path, no lock
        with self._locks.lock_for(v):
            rep = self._hash_reps[v]
            if rep is None:  # double-checked
                members = self._filtered_relabelled_neighbors(v, min_core)
                rep = set(members.tolist())
                self.counters.hash_inserts += len(members)
                self.counters.neighborhoods_built_hash += 1
                self._hash_reps[v] = rep
        return rep

    def sorted_neighborhood(self, v: int, min_core: int = 0) -> np.ndarray:
        """Sorted-array representation, built on first request."""
        rep = self._sorted_reps[v]
        if rep is not None:
            return rep
        with self._locks.lock_for(v):
            rep = self._sorted_reps[v]
            if rep is None:
                rep = np.sort(self._filtered_relabelled_neighbors(v, min_core))
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
        """An iterable array of the (constructed) neighborhood of ``v``.

        When only the hash representation exists, its sorted array form is
        materialized once and memoized as the sorted representation — the
        two then share the same filter state, and repeated queries (the
        filter loops hit the same vertices many times) stop paying the
        conversion.
        """
        arr = self._sorted_reps[v]
        if arr is not None:
            return arr
        rep = self._hash_reps[v]
        if rep is None:
            return self.sorted_neighborhood(v, min_core)
        with self._locks.lock_for(v):
            arr = self._sorted_reps[v]
            if arr is None:
                arr = np.array(sorted(rep), dtype=np.int64)
                self._sorted_reps[v] = arr
        return arr

    def right_neighborhood(self, v: int, min_core: int = 0) -> np.ndarray:
        """``{u in N(v) : u > v and core[u] >= min_core}`` (Alg. 8 line 2).

        Re-applies the coreness filter at query time because the memoized
        representation may have been built under a smaller incumbent.
        """
        arr = self.neighborhood_array(v, min_core)
        out = arr[arr > v]
        keep = self.core[out] >= min_core
        self.counters.elements_scanned += len(out)
        return out[keep]

    # -- prepopulation (Fig. 4) -----------------------------------------------------

    def prepopulate(self, policy: PrepopulatePolicy, incumbent_size: int) -> int:
        """Eagerly build neighborhood representations per policy.

        ``MUST`` builds the must subgraph — vertices with coreness at least
        the incumbent size known after degree-based heuristic search (§V-C).
        Each vertex gets the representation the degree rule (§IV-A) would
        choose lazily: a hash set above ``hash_degree_threshold``, a sorted
        array otherwise — eager construction changes *when* a
        representation is built, never *which*.  Returns the number of
        neighborhoods built.
        """
        if policy == PrepopulatePolicy.NONE:
            return 0
        if policy == PrepopulatePolicy.ALL:
            targets = np.flatnonzero(self.core >= 0)
        else:
            targets = np.flatnonzero(self.core >= incumbent_size)
        threshold = self.config.hash_degree_threshold
        for v in targets:
            if self.degrees[v] > threshold:
                self.hashed_neighborhood(int(v), incumbent_size)
            else:
                self.sorted_neighborhood(int(v), incumbent_size)
        return len(targets)

    # -- bookkeeping ------------------------------------------------------------------

    @property
    def n(self) -> int:
        return self.graph.n

    def degeneracy(self) -> int:
        """Largest coreness among represented vertices."""
        return int(self.core.max()) if len(self.core) else 0

    def built_counts(self) -> tuple[int, int]:
        """(hash, sorted) representation counts currently materialized."""
        return (sum(rep is not None for rep in self._hash_reps),
                sum(rep is not None for rep in self._sorted_reps))

    def to_original(self, vertices) -> list[int]:
        """Translate relabelled ids back to original graph ids."""
        return [int(self.order.new_to_old[v]) for v in vertices]
