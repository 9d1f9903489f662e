"""Pluggable execution engines for the solver's parfors.

The solvers (LazyMC's Alg. 1 phases, the PMC baseline) express their
parallelism as *parfors over an incumbent*: every task runs against an
:class:`~repro.parallel.incumbent.IncumbentView` and charges its work to
the run's :class:`~repro.instrument.Counters`.  Every backend runs that
shape through the one loop of
:class:`~repro.parallel.scheduler.SimulatedScheduler` — the same worker
assignment, cost accounting and schedule report.  They differ only in
*when a task's improvement is published* and in where the task body runs:

``sim``
    :class:`SimulatedEngine` — the deterministic virtual-time simulation,
    publishing at task finish.  The default, and the bit-identical
    continuation of every committed golden counter.
``seq``
    :class:`SequentialEngine` — the simulation at ``threads=1``: with one
    worker every publication lands no later than the next task's start,
    so the visible incumbent *is* the live incumbent.
``process``
    :class:`ProcessEngine` — real ``multiprocessing``.  Per-parfor task
    batches are shipped to a worker pool; the incumbent *size* is shared
    through a lock-guarded ``multiprocessing.Value`` so late tasks see
    improvements (the work-deflation half of the paper's Fig. 7 story)
    while tasks already in flight run against a stale bound (the
    work-inflation half, now on real processes).  Each worker task counts
    into its own counters, which come back with the result; the shared
    loop in the parent merges them into the run's counters, which makes
    them that task's cost and keeps the work account exact.
    Improvements are published at the parfor's start time.  Any failure
    to stand up a pool — unavailable start method, daemonic caller,
    unpicklable context — degrades to inline execution with the reason
    recorded in ``fallbacks``.

Bodies come in two shapes.  A plain callable ``(task, view, counters) ->
value`` runs in the calling process on every engine (closures cannot
cross a process boundary; the process engine runs them inline by design —
the heuristic phases are cheap and stay local).  An :class:`EngineBody`
additionally names a *module-level* ``worker`` function ``(ctx, task,
view, counters) -> (value, extra)`` that the process engine can ship to
its pool, plus an optional parent-side ``merge(extra)`` hook for
aggregating picklable side outputs (e.g. filter funnels).
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass
from typing import Callable, Sequence

from ..instrument import Counters
from .incumbent import Incumbent, IncumbentView
from .scheduler import SimulatedScheduler, TaskResult

#: Engine identifiers accepted by :func:`create_engine` and ``--engine``.
ENGINE_NAMES = ("sim", "seq", "process")

#: Multiprocessing start methods, in preference order: ``fork`` shares the
#: parent's pages for free (Linux); ``spawn`` is the portable fallback.
START_METHODS = ("fork", "spawn")


def start_process_pool(build: Callable, misses: list[str] | None = None):
    """Build a process pool under the first start method that works.

    ``build(ctx)`` receives a :mod:`multiprocessing` context and returns
    the pool.  Any start method may be unavailable (platform, daemonic
    caller); each miss is appended to ``misses`` as
    ``start_method:<method>: <exception>``.  Returns ``(pool, method)``,
    or ``None`` when every method failed.
    """
    import multiprocessing as mp

    for method in START_METHODS:
        try:
            return build(mp.get_context(method)), method
        except Exception as exc:
            if misses is not None:
                misses.append(
                    f"start_method:{method}: {type(exc).__name__}: {exc}")
    return None


@dataclass(frozen=True)
class EngineBody:
    """A parfor body in both its inline and process-shippable forms.

    ``inline`` is the closure every engine can run locally; ``worker`` is
    the picklable module-level twin the process engine ships (rebuilt
    worker state arrives as its ``ctx`` argument, installed via
    :meth:`ExecutionEngine.set_worker_context`); ``merge`` runs in the
    parent on each task's returned ``extra``.  An :class:`EngineBody` is
    itself callable with the inline signature, so a bare
    :class:`~repro.parallel.scheduler.SimulatedScheduler` accepts one
    transparently.
    """

    inline: Callable[[object, IncumbentView, Counters], object]
    worker: Callable | None = None
    merge: Callable[[object], None] | None = None

    def __call__(self, task, view: IncumbentView, counters: Counters):
        return self.inline(task, view, counters)


class ExecutionEngine(SimulatedScheduler):
    """What every backend adds to the scheduler: identity and a summary.

    The parfor loop itself is the scheduler's.  Backends without worker
    processes ignore the worker context and have no pool to close.
    """

    #: Whether parfor bodies may run outside this process (and therefore
    #: outside the reach of in-band budget checks).
    external_workers = False

    def __init__(self, threads: int = 1, counters: Counters | None = None):
        super().__init__(threads, counters)
        self.fallbacks: list[str] = []
        self.wall_seconds = 0.0
        self.start_method: str | None = None

    def set_worker_context(self, ctx) -> None:
        """No worker processes: nothing to ship."""

    def close(self) -> None:
        """No pool to tear down."""

    def info(self) -> dict:
        """Uniform engine summary (the ``engine`` section of records)."""
        return {
            "backend": self.name,
            "workers": self.threads,
            "makespan": self.report.makespan,
            "total_work": self.report.total_work,
            "tasks": len(self.report.tasks),
            "publications": self.publications,
            "wall_seconds": self.wall_seconds,
            "start_method": self.start_method,
            "fallbacks": list(self.fallbacks),
        }


class SimulatedEngine(ExecutionEngine):
    """The virtual-time simulation behind the engine interface.

    :class:`~repro.parallel.scheduler.SimulatedScheduler` already accepts
    :class:`EngineBody` bodies (they are callable), so the simulated
    schedule, counters and report are bit-identical to driving the
    scheduler directly.
    """

    name = "sim"


class SequentialEngine(ExecutionEngine):
    """Sequential execution with a live incumbent: the simulation at
    ``threads=1``.

    ``threads`` is accepted for interface symmetry; sequential execution
    is single-worker by definition.
    """

    name = "seq"

    def __init__(self, threads: int = 1, counters: Counters | None = None):
        super().__init__(1, counters)


# -- process-engine worker side (module level: picklable by reference) --------

_WORKER_CTX = None
_WORKER_SHARED = None


def _process_worker_init(ctx, shared) -> None:
    """Pool initializer: install the unpickled worker context once per
    process."""
    global _WORKER_CTX, _WORKER_SHARED
    _WORKER_CTX = ctx
    _WORKER_SHARED = shared


def _process_worker_run(worker_fn, task):
    """Run one task inside a pool worker.

    The shared value holds the best incumbent *size* published so far —
    enough for every filter (they compare against ``view.size``); the
    clique itself travels back with the result and is offered to the real
    incumbent in the parent.  Reading the size at task start and
    publishing at task end reproduces the paper's visibility semantics on
    real processes: tasks in flight keep their stale bound.
    """
    shared = _WORKER_SHARED
    with shared.get_lock():
        size = int(shared.value)
    view = IncumbentView(size, [])
    local = Counters()
    value, extra = worker_fn(_WORKER_CTX, task, view, local)
    pending = view.pending
    if pending is not None:
        with shared.get_lock():
            if len(pending) > shared.value:
                shared.value = len(pending)
    return value, local.as_dict(), pending, extra


class ProcessEngine(ExecutionEngine):
    """Real ``multiprocessing`` execution of shippable parfor bodies.

    Requires an :class:`EngineBody` with a ``worker`` function and a
    worker context installed via :meth:`set_worker_context`; anything else
    (closure bodies, pool-creation failure, mid-parfor pool death) runs
    inline, with the reason appended to ``fallbacks`` — degradation is
    never silent.

    Either way the tasks go through the scheduler's loop over
    ``processes`` workers, so counters and the schedule report stay in
    deterministic work units, directly comparable to the simulator's.
    Improvements are published at the parfor's start: a task run inline
    sees every improvement of the tasks before it, as a live incumbent.
    Measured wall-clock time of the pool maps accumulates separately in
    ``wall_seconds``.
    """

    name = "process"
    external_workers = True
    publish_at_finish = False

    def __init__(self, processes: int = 2, counters: Counters | None = None):
        if processes < 1:
            raise ValueError("processes must be >= 1")
        super().__init__(processes, counters)
        self.processes = processes
        self._ctx = None
        self._pool = None
        self._shared = None
        self._pool_broken = False

    def set_worker_context(self, ctx) -> None:
        """Install the picklable ``ctx`` every shipped task receives.

        Each worker unpickles it once at pool start; ``None`` means no
        context.  Installing a new context tears down any existing pool
        (its workers hold the old one).
        """
        if self._pool is not None:
            self.close()
        self._ctx = ctx
        self._pool_broken = False

    def close(self) -> None:
        """Terminate the worker pool, if any."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def _ensure_pool(self) -> bool:
        if self._pool is not None:
            return True
        if self._pool_broken:
            return False

        def build(ctx):
            shared = ctx.Value("q", 0)
            return shared, ctx.Pool(
                self.processes, initializer=_process_worker_init,
                initargs=(self._ctx, shared))

        started = start_process_pool(build, self.fallbacks)
        if started is None:
            self._pool_broken = True
            return False
        (self._shared, self._pool), self.start_method = started
        return True

    def parfor(self, tasks: Sequence, body, incumbent: Incumbent) -> list[TaskResult]:
        """Run ``body.worker`` over ``tasks`` on the process pool.

        The shared incumbent size is refreshed before the sweep; workers
        read it at task start and publish at task end. Bodies without a
        shippable worker (or any pool failure) run inline, with the
        reason recorded in ``fallbacks``.
        """
        tasks = list(tasks)
        if not tasks:
            return []
        raw = self._map(tasks, body, incumbent)
        if raw is None:
            return super().parfor(tasks, body, incumbent)
        merge = body.merge
        replies = iter(raw)

        def replay(task, view, counters):
            value, counter_dict, pending, extra = next(replies)
            if merge is not None and extra is not None:
                merge(extra)
            counters.merge(Counters(**counter_dict))
            if pending is not None:
                view.offer(pending)
            return value

        return super().parfor(tasks, replay, incumbent)

    def _map(self, tasks: list, body, incumbent: Incumbent) -> list | None:
        """Per-task ``(value, counters, pending, extra)`` from the pool, or
        ``None`` when the parfor must run inline."""
        worker_fn = body.worker if isinstance(body, EngineBody) else None
        if worker_fn is None:
            return None  # closure bodies stay local by design (cheap phases)
        if self._ctx is None:
            # A shippable body without a context is a caller bug worth
            # surfacing, but never worth crashing a solve over.
            self._note_fallback("no worker context installed")
            return None
        if not self._ensure_pool():
            self._note_fallback("no usable start method")
            return None
        with self._shared.get_lock():
            self._shared.value = incumbent.size
        chunksize = max(1, len(tasks) // (self.processes * 4))
        t0 = time.perf_counter()
        try:
            raw = self._pool.map(
                functools.partial(_process_worker_run, worker_fn),
                tasks, chunksize)
        except Exception as exc:
            self._note_fallback(f"map: {type(exc).__name__}: {exc}")
            self.close()
            self._pool_broken = True
            return None
        self.wall_seconds += time.perf_counter() - t0
        return raw

    def _note_fallback(self, reason: str) -> None:
        if reason not in self.fallbacks:
            self.fallbacks.append(reason)


def create_engine(engine: str = "sim", threads: int = 1, processes: int = 0,
                  counters: Counters | None = None):
    """Build the engine named by ``engine``.

    ``threads`` parameterizes the simulator; ``processes`` the process
    pool (``0`` means auto: the CPU count, floored at 2 so incumbent
    sharing across workers exists even on one core).
    """
    if engine == "sim":
        return SimulatedEngine(threads, counters)
    if engine == "seq":
        return SequentialEngine(counters=counters)
    if engine == "process":
        if processes <= 0:
            import os

            processes = max(os.cpu_count() or 1, 2)
        return ProcessEngine(processes, counters)
    raise ValueError(
        f"unknown engine {engine!r}; known: {', '.join(ENGINE_NAMES)}")
