"""LazyMC top-level driver (Alg. 1).

Phases, in order, each timed for the Fig. 2 breakdown:

1. ``heuristic_degree`` — Alg. 5 on the raw graph.
2. ``kcore`` — incumbent-bounded coreness: vertices with degree below the
   incumbent size (outside S0) are excluded outright, and only S0's rows
   are read; charged ``n + vol(S0)``.
3. ``sort`` — the (coreness, degree) two-phase counting sort of S0,
   charged ``2|S0|``.
4. ``prepopulate`` — eager construction of the *must* subgraph's
   neighborhood representations, hash or sorted per the §IV-A degree rule
   (policy-dependent, Fig. 4).
5. ``heuristic_coreness`` — Alg. 6 on the lazy graph.
6. ``systematic`` — Alg. 7 + Alg. 8.  Each searched neighborhood goes to
   the k-VC arm when its induced density reaches φ, else to the direct
   MC arm.

The result is exact: the returned clique is a maximum clique of the input.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from ..checkpoint import Checkpointer, SearchCheckpoint
from ..errors import BudgetExceeded
from ..graph.csr import CSRGraph
from ..graph.kcore import coreness_degree_filtered
from ..graph.ordering import coreness_degree_order
from ..instrument import Counters, PhaseTimer, PhaseTimers, WorkBudget
from ..parallel.engine import create_engine
from ..parallel.incumbent import Incumbent
from ..parallel.scheduler import ScheduleReport
from ..trace.tracer import NULL_TRACER, Tracer
from .config import LazyMCConfig
from .filtering import FilterFunnel
from .heuristics import coreness_based_heuristic_search, degree_based_heuristic_search
from .lazygraph import LazyGraph
from .systematic import systematic_search


@contextmanager
def _phase(timers: PhaseTimers, counters: Counters, tracer: Tracer,
           name: str):
    """One Alg. 1 phase: its :class:`~repro.instrument.PhaseTimers` entry
    and its ``phase:<name>`` trace span, opened and closed together."""
    with PhaseTimer(timers, name, counters), tracer.span(f"phase:{name}"):
        yield


def _setup_charges(graph: CSRGraph, core) -> tuple[int, int]:
    """Work of Alg. 1's k-core and sort phases: ``(n + vol(S0), 2|S0|)``.

    S0 are the vertices that passed the degree test (coreness >= 0).  The
    k-core phase tests every degree and reads each S0 row once; the sort
    makes two stable counting-sort passes over S0.
    """
    survivors = core >= 0
    return (graph.n + int(graph.degrees[survivors].sum()),
            2 * int(survivors.sum()))


@dataclass
class MCResult:
    """Everything a bench or a user needs from one solve."""

    clique: list[int]
    omega: int
    degeneracy: int
    gap: int
    heuristic_degree_size: int
    heuristic_coreness_size: int
    counters: Counters
    timers: PhaseTimers
    funnel: FilterFunnel
    schedule: ScheduleReport
    incumbent_history: list[tuple[float, int]] = field(default_factory=list)
    timed_out: bool = False
    wall_seconds: float = 0.0
    engine: dict = field(default_factory=dict)

    def verify(self, graph: CSRGraph) -> bool:
        """Check the returned vertices really form a clique of size omega."""
        return len(self.clique) == self.omega and graph.is_clique(self.clique)


class LazyMC:
    """Configured LazyMC solver; ``solve`` may be called on many graphs."""

    def __init__(self, config: LazyMCConfig | None = None):
        self.config = config if config is not None else LazyMCConfig()

    def solve(self, graph: CSRGraph, *,
              checkpointer: Checkpointer | None = None,
              resume: SearchCheckpoint | None = None,
              fault_hook=None, tracer: Tracer | None = None) -> MCResult:
        """Run Alg. 1 on ``graph`` and return the full result record.

        ``checkpointer`` snapshots systematic-search progress so a killed
        run can be continued; ``resume`` replays such a snapshot.  The
        cheap prefix phases (heuristics, k-core, sort, prepopulation) are
        deterministic and re-run on resume — only the expensive systematic
        sweep is resumed, and the work counter is fast-forwarded to the
        checkpoint's value first so budgets and reported totals continue
        rather than restart.  ``fault_hook`` is threaded into the
        :class:`~repro.instrument.WorkBudget` (see :mod:`repro.faults`).
        ``tracer`` records the search-tree event stream
        (:mod:`repro.trace`); it observes counters but never mutates
        them, so the default-off path is bit-identical.  All four default
        to ``None``: the unadorned path is unchanged.
        """
        cfg = self.config
        counters = Counters()
        timers = PhaseTimers()
        funnel = FilterFunnel()
        incumbent = Incumbent()
        engine = create_engine(cfg.engine, cfg.threads, cfg.processes,
                               counters)
        budget = WorkBudget(cfg.max_work, cfg.max_seconds, counters,
                            fault_hook=fault_hook)
        tracer = tracer if tracer is not None else NULL_TRACER
        tracer.bind(counters)
        phase = functools.partial(_phase, timers, counters, tracer)
        t0 = time.perf_counter()

        if graph.n == 0:
            tracer.finish()
            return self._result(graph, incumbent, 0, 0, 0, counters, timers,
                                funnel, engine, t0, timed_out=False)
        # Any vertex is a 1-clique; gives the filters a floor.
        incumbent.offer([0])

        timed_out = False
        degeneracy = 0
        w_d = w_h = 1
        try:
            with phase("heuristic_degree"):
                degree_based_heuristic_search(graph, incumbent, cfg, engine)
            w_d = incumbent.size
            if tracer.enabled and w_d > 1:
                tracer.incumbent(w_d, source="heuristic_degree")

            with phase("kcore"):
                core = coreness_degree_filtered(graph, incumbent.size)
                # The degree test reads every vertex; the peel reads each
                # survivor's row once.  The baselines' whole-graph peels
                # are charged n + 2m by the same rule.  It is imperfectly
                # parallel (§V-F): model it as a partially parallelizable
                # section.
                kcore_cost, sort_cost = _setup_charges(graph, core)
                counters.elements_scanned += kcore_cost
                engine.run_serial_section(
                    kcore_cost, int(kcore_cost / (engine.threads ** 0.5)))
            # The degree filter hides low-degree vertices.  When the true
            # degeneracy d >= |C*| the d-core survives the filter and
            # core.max() == d; otherwise the incumbent must be a
            # (d+1)-clique, so d = |C*| - 1 dominates.
            degeneracy = max(int(core.max()), incumbent.size - 1)

            with phase("sort"):
                order = coreness_degree_order(graph, core)
                counters.elements_scanned += sort_cost
                engine.run_serial_section(
                    sort_cost, int(sort_cost / (engine.threads ** 0.5)))

            lazy = LazyGraph(graph, order, core, cfg, counters)

            with phase("prepopulate"):
                lazy.prepopulate(cfg.prepopulate, incumbent.size)

            with phase("heuristic_coreness"):
                coreness_based_heuristic_search(lazy, incumbent, cfg, engine)
            w_h = incumbent.size
            if tracer.enabled and w_h > w_d:
                tracer.incumbent(w_h, source="heuristic_coreness")

            if resume is not None and resume.work > counters.work:
                # Fast-forward to the checkpoint's work so the resumed
                # run's totals (and any work budget) continue where the
                # killed run stopped instead of re-counting from the
                # prefix; the crash then costs at most one checkpoint
                # interval plus the (cheap, deterministic) prefix phases.
                counters.elements_scanned += resume.work - counters.work

            with phase("systematic"):
                systematic_search(lazy, incumbent, cfg, engine, funnel,
                                  budget, checkpointer=checkpointer,
                                  resume=resume, tracer=tracer)
        except BudgetExceeded:
            timed_out = True
        finally:
            engine.close()

        if tracer.enabled:
            tracer.incumbent(incumbent.size, source="final")
            tracer.finish()
        return self._result(graph, incumbent, degeneracy, w_d, w_h, counters,
                            timers, funnel, engine, t0, timed_out)

    @staticmethod
    def _result(graph, incumbent, degeneracy, w_d, w_h, counters, timers,
                funnel, engine, t0, timed_out) -> MCResult:
        clique = sorted(incumbent.clique)
        return MCResult(
            clique=clique,
            omega=len(clique),
            degeneracy=degeneracy,
            gap=degeneracy + 1 - len(clique) if graph.n else 0,
            heuristic_degree_size=w_d,
            heuristic_coreness_size=w_h,
            counters=counters,
            timers=timers,
            funnel=funnel,
            schedule=engine.report,
            incumbent_history=incumbent.history,
            timed_out=timed_out,
            wall_seconds=time.perf_counter() - t0,
            engine=engine.info(),
        )


def lazymc(graph: CSRGraph, config: LazyMCConfig | None = None, *,
           checkpointer: Checkpointer | None = None,
           resume: SearchCheckpoint | None = None,
           fault_hook=None, tracer: Tracer | None = None) -> MCResult:
    """Solve the maximum clique problem on ``graph`` with LazyMC.

    Exact (unless a budget is configured and trips, in which case
    ``result.timed_out`` is set and the incumbent is best-effort).  See
    :meth:`LazyMC.solve` for the checkpoint/resume, fault-hook and
    tracer knobs.
    """
    return LazyMC(config).solve(graph, checkpointer=checkpointer,
                                resume=resume, fault_hook=fault_hook,
                                tracer=tracer)
