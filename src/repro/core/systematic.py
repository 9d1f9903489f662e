"""Systematic search (Alg. 7).

Establishes the exact maximum clique by invoking ``NeighborSearch`` on
every eligible vertex.  Two passes:

1. **Seeding** — one lowest-numbered vertex per degeneracy level, from the
   incumbent size up to the degeneracy.  Cheap (few, mostly small
   neighborhoods) and valuable on high clique-core-gap graphs, where it
   establishes a good incumbent before the expensive levels are swept.
2. **Sweep** — every level from the degeneracy down to the incumbent size,
   all vertices of a level in parallel (simulated or real, per the
   engine).  High levels first mirrors the must-before-may exploration of
   §III-A.  Levels and vertices below the *current* incumbent size are
   skipped — a vertex of coreness c can only belong to cliques of size
   <= c + 1, so proving no clique beats |C*| only requires vertices with
   c(v) >= |C*|.

The per-vertex body is expressed as an
:class:`~repro.parallel.engine.EngineBody`: the inline closure drives the
simulated and sequential engines (and carries tracing and in-band budget
checks), while the module-level :func:`_systematic_worker` twin is what the
process engine ships to its pool — it rebuilds nothing (the lazy graph
arrives once via the worker context), returns its per-task filter funnel
for parent-side merging, and leaves budget enforcement to the parent,
which checks after every parfor when workers are external.
"""

from __future__ import annotations

from ..checkpoint import Checkpointer, SearchCheckpoint
from ..instrument import Counters, WorkBudget
from ..parallel.engine import EngineBody
from ..parallel.incumbent import Incumbent, IncumbentView
from ..trace.tracer import NULL_TRACER, Tracer
from .config import LazyMCConfig
from .filtering import FilterFunnel, neighbor_search
from .lazygraph import LazyGraph


def _systematic_worker(ctx, v: int, view: IncumbentView,
                       counters: Counters):
    """Process-shippable twin of the per-vertex search task.

    The worker's lazy graph charges its (re)build work to the task-local
    counters — unlike the parent copy, whose builds are memoized and
    already paid for — so the merged totals stay an honest account of the
    work actually done.  The per-task funnel rides back as the ``extra``
    for the parent to merge.  No budget and no tracer: both live in the
    parent process (the parent re-checks its budget after every parfor).
    """
    lazy = ctx["lazy"]
    if lazy.core[v] < view.size:
        return None, None
    lazy.counters = counters
    funnel = FilterFunnel()
    neighbor_search(lazy, v, view, ctx["config"], counters, funnel)
    return None, funnel


def systematic_search(lazy: LazyGraph, incumbent: Incumbent,
                      config: LazyMCConfig, engine,
                      funnel: FilterFunnel, budget: WorkBudget | None = None,
                      checkpointer: Checkpointer | None = None,
                      resume: SearchCheckpoint | None = None,
                      tracer: Tracer = NULL_TRACER) -> None:
    """Run Alg. 7 to completion (or until the budget trips).

    ``engine`` is any :mod:`repro.parallel.engine` backend (a bare
    :class:`~repro.parallel.scheduler.SimulatedScheduler` also works —
    the body is callable in its inline form).

    With a ``checkpointer``, progress is snapshotted after the seeding
    pass and after every swept level: the checkpoint's ``cursor`` is the
    next level to sweep (levels descend), its clique the incumbent in
    *original* graph ids.  A ``resume`` checkpoint replays that state —
    the incumbent is re-offered, the seeding pass skipped if already done,
    and the sweep starts at ``resume.cursor`` — valid because the level
    structure is a deterministic function of the (graph, config) pair, so
    an identically prepared run partitions roots identically.  Both
    default to ``None``, leaving the original path byte-for-byte intact.

    Inline tasks charge the engine's counters, which must be
    ``lazy.counters`` (the run's counters): lazy-graph builds land there
    too, so a task's cost covers them and in-band budget checks see the
    running task's work.

    ``tracer`` records one span per seeding pass and per swept level; its
    virtual clock reads the run's counters, which tasks charge directly,
    so event timestamps stay monotone across the simulated parallelism.
    Tracing rides the inline body only — the process engine's workers run
    untraced.
    """
    if lazy.n == 0:
        return
    degeneracy = lazy.degeneracy()
    if degeneracy <= 0:
        return

    levels = lazy.levels()
    first_at_level = {k: ids[0] for k, ids in levels.items()}
    core = lazy._core

    def task(v: int, view: IncumbentView, counters: Counters) -> None:
        # Re-check eligibility against the task's visible incumbent: the
        # incumbent may have grown since the level was scheduled.
        if core[v] < view.size:
            return
        neighbor_search(lazy, v, view, config, counters, funnel, budget,
                        tracer=tracer)

    body = EngineBody(inline=task, worker=_systematic_worker,
                      merge=funnel.merge)
    external = getattr(engine, "external_workers", False)
    if external:
        # Workers inherit the parent's prepared lazy graph, memoized
        # neighborhood representations included, instead of rebuilding it.
        engine.set_worker_context({"lazy": lazy, "config": config})

    def check_budget() -> None:
        # External workers run without in-band budget checks (the budget
        # object lives in the parent); enforce it at the parfor barrier.
        if external and budget is not None:
            budget.check()

    seed_done = False
    start_level = degeneracy
    if resume is not None:
        if resume.clique:
            incumbent.offer(resume.clique)
        seed_done = resume.seed_done
        if resume.complete:
            return
        if resume.cursor is not None:
            start_level = min(start_level, resume.cursor)

    def snapshot(cursor: int | None, complete: bool = False,
                 seeded: bool = True) -> SearchCheckpoint:
        work = budget.counters.work if budget is not None and \
            budget.counters is not None else 0
        return SearchCheckpoint(clique=incumbent.clique, work=work,
                                cursor=cursor, seed_done=seeded,
                                complete=complete)

    cursor = start_level
    try:
        # Pass 1 (lines 2-5): seed one vertex per level, ascending from |C*|.
        if config.seed_per_level and not seed_done:
            seeds = [first_at_level[k]
                     for k in range(max(incumbent.size, 1), degeneracy + 2)
                     if k in first_at_level]
            if seeds:
                with tracer.span("seed", count=len(seeds)):
                    engine.parfor(seeds, body, incumbent)
                check_budget()
        seed_done = True
        if checkpointer is not None:
            checkpointer.offer(snapshot(start_level))

        # Pass 2 (lines 6-11): sweep levels from high to low coreness.
        for k in range(start_level, 0, -1):
            if k < incumbent.size:
                # Levels below the incumbent cannot host anything bigger; the
                # incumbent only grows, so every remaining level is skippable.
                break
            cursor = k
            vertices = levels.get(k)
            if vertices:
                with tracer.span("level", k=k, count=len(vertices)):
                    engine.parfor(vertices, body, incumbent)
                check_budget()
            cursor = k - 1
            if checkpointer is not None:
                checkpointer.offer(snapshot(k - 1))
    except BaseException:
        # A tripped budget (or an injected fault) still leaves a resumable
        # trail: one forced snapshot at the last safe cursor, so a retry
        # re-sweeps at most the level that was in flight.
        if checkpointer is not None:
            checkpointer.offer(snapshot(cursor, seeded=seed_done), force=True)
        raise
    if checkpointer is not None:
        checkpointer.offer(snapshot(None, complete=True), force=True)
