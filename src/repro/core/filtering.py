"""NeighborSearch: filtered search of one right-neighborhood (Alg. 8).

The work-avoidance core of the paper.  Most right-neighborhoods contain no
clique beating the incumbent; NeighborSearch is built to *prove that
cheaply* before any branching happens:

1. **coreness filter** (line 2) — keep only right-neighbors whose coreness
   allows membership in a clique larger than the incumbent;
2. **filter 1** (line 3) — give up if fewer than |C*| candidates remain;
3. **filter 2** (lines 4-7) — drop candidates with insufficient degree
   *inside the candidate set*, established by the boolean early-exit
   kernel with θ = |C*| - 2;
4. **filter 3** (lines 8-13) — repeat with the exact-size kernel, which
   additionally accumulates the induced edge count m̂ for free;
5. **dispatch** (lines 14-17) — if the surviving subgraph's density
   exceeds φ, solve it as k-vertex cover on the complement, else as direct
   MC branch and bound.

The surviving subgraph is extracted once, as one Python-int bitmask per
survivor (:func:`~repro.graph.subgraph.induced_masks`), and both arms
read those masks: k-VC builds its complement from them, and the MC arm
turns them into sets.

The per-stage survival counts form the Table III funnel.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..graph.subgraph import induced_masks
from ..instrument import Counters, WorkBudget
from ..intersect.early_exit import intersect_size_gt_bool, intersect_size_gt_val
from ..mc.branch_bound import MCSubgraphSolver
from ..parallel.incumbent import IncumbentView
from ..trace.tracer import NULL_TRACER, Tracer
# The k-VC arm goes by ``max_clique_via_vc`` here: perfbench's ``kvc``
# layer wraps this module's ``max_clique_via_vc``.
from ..vc.clique_via_vc import max_clique_via_vc_masks as max_clique_via_vc
from ..vc.kernelization import mask_ids
from .config import LazyMCConfig
from .lazygraph import LazyGraph


@dataclass
class FilterFunnel:
    """Neighborhood survival counts per filtering stage (Table III).

    Each field counts right-neighborhoods that *survived* that stage (and
    so entered the next); ``searched`` are those reaching a sub-solver.
    ``density_work`` histograms sub-solver work by induced density decile
    for the Fig. 6 analysis.
    """

    considered: int = 0
    after_coreness: int = 0
    after_filter1: int = 0
    after_filter2: int = 0
    after_filter3: int = 0
    searched: int = 0
    searched_mc: int = 0
    searched_kvc: int = 0
    work_total: int = 0
    work_mc: int = 0
    work_kvc: int = 0
    density_work: dict = field(default_factory=dict)

    @property
    def work_filtering(self) -> int:
        """Work spent proving neighborhoods irrelevant (Fig. 3's filter bar)."""
        return self.work_total - self.work_mc - self.work_kvc

    def merge(self, other: "FilterFunnel") -> None:
        """Accumulate another funnel (wave/task merging)."""
        self.considered += other.considered
        self.after_coreness += other.after_coreness
        self.after_filter1 += other.after_filter1
        self.after_filter2 += other.after_filter2
        self.after_filter3 += other.after_filter3
        self.searched += other.searched
        self.searched_mc += other.searched_mc
        self.searched_kvc += other.searched_kvc
        self.work_total += other.work_total
        self.work_mc += other.work_mc
        self.work_kvc += other.work_kvc
        for k, v in other.density_work.items():
            self.density_work[k] = self.density_work.get(k, 0) + v

    def per_mille(self, n_vertices: int) -> dict:
        """Table III normalization: neighborhoods per thousand vertices."""
        scale = 1000.0 / n_vertices if n_vertices else 0.0
        return {
            "coreness": self.after_coreness * scale,
            "filter1": self.after_filter1 * scale,
            "filter2": self.after_filter2 * scale,
            "filter3": self.after_filter3 * scale,
        }


def _induced_masks(lazy: LazyGraph, candidates: list[int], min_core: int,
                   counters: Counters) -> list[int]:
    """Cut out G[N] as one local-id bitmask per candidate.

    Bit j of mask i is set iff ``candidates[j]`` neighbours
    ``candidates[i]``; every row scanned is charged to
    ``elements_scanned``.  This is the one extraction all three arms read;
    ``bench micro``'s arm race records the dispatched traffic by wrapping
    this module-level name, so callers look it up here.
    """
    rows = [lazy.neighborhood_array(u, min_core) for u in candidates]
    counters.elements_scanned += sum(map(len, rows))
    return induced_masks(rows, candidates)


def _degree_filters(lazy: LazyGraph, cand_list: list[int], cstar: int,
                    config: LazyMCConfig,
                    counters: Counters) -> tuple[list[int], int, int]:
    """Filters 2 and 3 (Alg. 8 lines 4-13): ``(survivors, m̂, rounds passed)``.

    The boolean kernel runs for rounds 1..r-1, the exact-size kernel
    (which also yields m̂ for free) for the final round — the paper's
    default r=2 is exactly filter 2 + filter 3.  ``cand_list`` holds at
    least ``cstar`` candidates (filter 1).  A round stops as soon as fewer
    than ``cstar`` candidates are left, as §IV-B's early exits stop an
    intersection: it then returns the candidates left at that point.
    """
    rounds = config.filter_rounds
    if rounds >= 1:
        cand_set = set(cand_list)
        counters.hash_inserts += len(cand_list)
    m_hat = 0
    for rnd in range(rounds):
        final_round = (rnd == rounds - 1)
        # N as it stands, in candidate order: the first ``kept`` entries
        # survived this round, the rest are still to be probed.  Deleting
        # a refuted candidate at ``kept`` keeps ``live`` equal to the
        # survivors followed by the unprobed tail, so removals earlier in
        # the round are visible to later candidates, as in Alg. 8.
        live = cand_list.copy()
        kept = 0
        m_hat = 0
        for u in cand_list:
            row = lazy.neighborhood_array(u, cstar)
            # Degree test d_N(u) > cstar - 2 is symmetric in its two sets;
            # scan the smaller side and probe the other's hash rep (§IV-A:
            # intersections go through the hash set).  Scanning N instead
            # of N_G(u) also tightens the early-exit tolerance.
            if len(row) <= len(cand_set):
                a_side, b_side = row, cand_set
            else:
                a_side, b_side = live, lazy.membership_set(u, cstar)
            if final_round:
                d = intersect_size_gt_val(a_side, b_side, cstar - 2,
                                          counters, config.early_exit)
                # Both orientations count u itself never (u not in N_G(u));
                # when scanning N, u is in A but misses B, same answer.
                keep = d > cstar - 2
                if keep:
                    m_hat += d
            else:
                keep = intersect_size_gt_bool(a_side, b_side, cstar - 2,
                                              counters, config.early_exit)
            if keep:
                kept += 1
                continue
            del live[kept]
            cand_set.discard(u)
            if len(live) < cstar:
                # ``live`` bounds the round's survivors: the round is
                # doomed, so its remaining probes cannot change the verdict.
                return live, m_hat, rnd
        cand_list = live
    return cand_list, m_hat, rounds


def neighbor_search(lazy: LazyGraph, v: int, view: IncumbentView,
                    config: LazyMCConfig, counters: Counters,
                    funnel: FilterFunnel, budget: WorkBudget | None = None,
                    tracer: Tracer = NULL_TRACER) -> None:
    """Search the right-neighborhood of relabelled vertex ``v`` (Alg. 8).

    Improvements are offered to ``view``; the caller publishes them.
    ``tracer`` (sampled) records one ``neighborhood`` span per call, one
    ``{mc,bits,kvc}_subsolve`` span per dispatched sub-solve, and
    technique-tagged prune events at each early return and each refuting
    sub-solve.
    """
    if budget is not None:
        budget.check()
    funnel.considered += 1
    call_work_start = counters.work
    span = tracer.span("neighborhood", sampled=True, v=v) \
        if tracer.enabled else None
    try:
        _neighbor_search_body(lazy, v, view, config, counters, funnel, budget,
                              tracer)
    finally:
        funnel.work_total += counters.work - call_work_start
        if span is not None:
            span.end()


def _neighbor_search_body(lazy: LazyGraph, v: int, view: IncumbentView,
                          config: LazyMCConfig, counters: Counters,
                          funnel: FilterFunnel,
                          budget: WorkBudget | None,
                          tracer: Tracer = NULL_TRACER) -> None:
    cstar = view.size

    # Line 2: coreness-filtered right-neighborhood.
    cand = lazy.right_neighborhood(v, cstar)
    funnel.after_coreness += 1

    # Filter 1 (line 3): the candidate set must be able to supply |C*|
    # vertices on top of v.
    if len(cand) < cstar:
        if tracer.enabled:
            tracer.prune("lazy_filter", v=v, cand=len(cand), cstar=cstar)
        return
    funnel.after_filter1 += 1

    # A degree-filter stage that does not run passes every neighborhood:
    # filter 2 is the first round, filter 3 the remaining ones.
    rounds = config.filter_rounds
    survivors, m_hat, passed = _degree_filters(lazy, cand, cstar, config,
                                               counters)
    if passed >= 1 or rounds == 0:
        funnel.after_filter2 += 1
    if passed < rounds:
        if tracer.enabled:
            technique = "early_exit_filter" if passed == 0 \
                else "advance_filter"
            tracer.prune(technique, v=v, survivors=len(survivors), cstar=cstar)
        return
    funnel.after_filter3 += 1

    # One extraction for every arm; the density comes from m̂ (directed
    # count over survivors) when a val round ran, else from the masks.
    k = len(survivors)
    masks = _induced_masks(lazy, survivors, cstar, counters)
    if k <= 1:
        density = 1.0
    elif rounds >= 1:
        density = m_hat / (k * (k - 1))
    else:
        density = sum(m.bit_count() for m in masks) / (k * (k - 1))

    # Line 14's dispatch: k-VC when the density reaches φ, else direct MC.
    funnel.searched += 1
    use_kvc = config.use_kvc and density >= config.density_threshold
    if use_kvc:
        funnel.searched_kvc += 1
    else:
        funnel.searched_mc += 1
        counters.mc_subsolves += 1

    arm = "kvc" if use_kvc else "mc"
    if tracer.enabled:
        tracer.point("dispatch", v=v, backend="kvc" if use_kvc else "sets",
                     k=k, density=round(density, 6))

    # The arm's span covers the sub-solve's work alone, as
    # funnel.work_mc/work_kvc do.
    bound = cstar - 1
    work_before = counters.work
    span = tracer.span(f"{arm}_subsolve", sampled=True, n=k, bound=bound) \
        if tracer.enabled else None
    try:
        if use_kvc:
            found = max_clique_via_vc(masks, lower_bound=bound,
                                      counters=counters, budget=budget)
        else:
            # Ascending insertion: each set iterates as the rows did.
            adj = [set(mask_ids(m)) for m in masks]
            found = MCSubgraphSolver(counters=counters,
                                     budget=budget).solve(adj, bound)
    finally:
        if span is not None:
            span.end()
    if found is None and tracer.enabled:
        tracer.prune(f"{arm}_subsolve", n=k, bound=bound)
    sub_work = counters.work - work_before
    if use_kvc:
        funnel.work_kvc += sub_work
    else:
        funnel.work_mc += sub_work
    bucket = min(int(density * 10), 9)
    funnel.density_work[bucket] = funnel.density_work.get(bucket, 0) + sub_work

    if found is not None and len(found) + 1 > cstar:
        if tracer.enabled:
            tracer.incumbent(len(found) + 1, source="neighbor_search", v=v)
        clique_relabelled = [v] + [survivors[i] for i in found]
        view.offer(lazy.to_original(clique_relabelled))
