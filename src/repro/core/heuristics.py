"""Heuristic clique searches (Alg. 5 and Alg. 6).

Both are greedy constructions that prime the incumbent before (and between)
the expensive phases; a good early incumbent is what powers every
subsequent filter (§II-A).  Table I's ω̂_d and ω̂_h columns report what each
finds.

* **Degree-based** (Alg. 5) runs on the *original* graph before any k-core
  work, growing a clique from each of the top-K degree vertices by always
  adding the candidate with the highest degree inside the shrinking
  candidate set — the argmax computed with ``intersect_size_gt_val`` under
  a running-maximum threshold, so most candidates' intersections exit
  early.
* **Coreness-based** (Alg. 6) runs on the lazy relabelled graph, one seed
  per coreness level, always extending with the highest-numbered (=
  highest-coreness) candidate; the candidate set is narrowed with
  ``intersect_gt`` under the θ = |C*| - |C| bound, abandoning seeds that
  provably cannot beat the incumbent.
"""

from __future__ import annotations

import numpy as np

from ..graph.csr import CSRGraph
from ..instrument import Counters
from ..intersect.early_exit import intersect_gt, intersect_size_gt_val
from ..parallel.incumbent import Incumbent, IncumbentView
from .config import LazyMCConfig
from .lazygraph import LazyGraph

#: Alg. 5: number of top-degree seeds for degree-based heuristic search.
#: The paper does not fix K; 8 balances heuristic quality against the
#: O(|N|^2)-per-extension argmax cost at analogue scale.
HEURISTIC_TOP_K = 8


def degree_based_heuristic_search(graph: CSRGraph, incumbent: Incumbent,
                                  config: LazyMCConfig,
                                  engine) -> None:
    """Alg. 5: greedy max-degree clique growth from top-K degree seeds.

    ``engine`` is any :mod:`repro.parallel.engine` backend.  The body is a
    closure (it reads ``view.clique``, which only the local incumbent
    carries), so it runs inline on every engine — by design: the
    heuristics are cheap prefix phases, not the parallel payload.
    """
    n = graph.n
    if n == 0:
        return
    degrees = graph.degrees
    k = min(HEURISTIC_TOP_K, n)
    # Top-K vertices by degree (argpartition = the "identify top-K" step).
    top = np.argpartition(degrees, n - k)[n - k:]
    top = top[np.argsort(-degrees[top], kind="stable")]

    def run(v: int, view: IncumbentView, counters: Counters) -> None:
        # Work-avoidance on the seeds themselves: a seed inside the
        # already-known incumbent clique would greedily re-derive that
        # same clique (top-degree seeds cluster inside dominant cliques).
        if int(v) in view.clique:
            return
        nbrs = graph.neighbors(int(v))
        counters.elements_scanned += len(nbrs)
        # Degree pre-filter (line 4).
        cand = nbrs[degrees[nbrs] >= view.size].tolist()
        clique = [int(v)]
        buf = [0] * len(cand)
        # Each probed row as a list, and as a set once it is probed from
        # the other side, for the rest of this seed's extension rounds.
        rows: dict[int, list[int]] = {}
        row_sets: dict[int, set[int]] = {}

        def row_set(w: int) -> set[int]:
            found = row_sets.get(w)
            if found is None:
                found = row_sets[w] = set(rows[w])
            return found

        while cand:
            cand_set = set(cand)
            counters.hash_inserts += len(cand)
            best_u = -1
            best_d = -1  # running maximum = θ for every probe
            for w in cand:
                row = rows.get(w)
                if row is None:
                    row = rows[w] = graph.neighbors(w).tolist()
                # Induced degree |cand ∩ N(w)| is symmetric: scan the
                # smaller side so the running-max threshold exits sooner.
                if len(row) <= len(cand):
                    d = intersect_size_gt_val(row, cand_set, best_d,
                                              counters, config.early_exit)
                else:
                    d = intersect_size_gt_val(cand, row_set(w), best_d,
                                              counters, config.early_exit)
                if d > best_d:
                    best_d = d
                    best_u = w
            if best_u < 0:  # all probes refused: candidates are isolated
                best_u = cand[0]
            clique.append(best_u)
            # cand <- cand ∩ N(best_u); θ = -1 always materializes.
            size = intersect_gt(cand, row_set(best_u), buf, -1, counters,
                                config.early_exit)
            cand = buf[:size]
        view.offer(clique)

    engine.parfor(list(map(int, top)), run, incumbent)


def coreness_based_heuristic_search(lazy: LazyGraph, incumbent: Incumbent,
                                    config: LazyMCConfig,
                                    engine) -> None:
    """Alg. 6: one greedy descent per coreness level, highest level first."""
    # Lowest-numbered vertex of each level.
    first_at_level = {k: ids[0] for k, ids in lazy.levels().items()}
    levels = sorted(first_at_level, reverse=True)

    def run(level: int, view: IncumbentView, counters: Counters) -> None:
        # The lazy-graph builds this seed causes charge ``lazy.counters``:
        # the run's counters, which the engine hands the task too.
        v = first_at_level[level]
        cand = lazy.right_neighborhood(v, view.size)
        clique = [v]
        buf = [0] * len(cand)
        while cand:
            u = cand[-1]  # highest-numbered = highest coreness
            theta = view.size - (len(clique) + 1)
            rep = lazy.membership_set(u, view.size)
            size = intersect_gt(cand, rep, buf, theta, counters,
                                config.early_exit)
            clique.append(u)
            if size < 0:
                break  # cannot beat the incumbent through this seed
            cand = buf[:size]
        view.offer(lazy.to_original(clique))

    engine.parfor(levels, run, incumbent)
