"""Parallel execution substrate.

The paper's implementation runs on 128 hardware threads via Parlay.  CPython
cannot reproduce shared-memory parallel branch-and-bound speedups (the GIL
serializes the search), so this package provides a **deterministic simulated
scheduler**: tasks execute sequentially in a virtual-time, event-driven
simulation of ``T`` workers.  Work is measured in counted set-operations,
incumbent-clique updates become visible to a task only if published before
the task's virtual start time, and the simulated makespan is the max worker
finish time.

This reproduces the paper's central parallel phenomenon — *work inflation*:
tasks that start before a better incumbent is published filter less and do
more work (§V-F, Fig. 7) — while remaining exactly reproducible run-to-run.
With ``threads=1`` the simulation degenerates to plain sequential execution
with a live incumbent.

The execution engines (:mod:`repro.parallel.engine`) run every parfor
through that one simulated loop; the ``process`` engine ships task bodies
to real worker processes and replays their measured costs through it.
:func:`~repro.parallel.engine.start_process_pool` is the one place a
multiprocessing start method is chosen, for the engine's pool and the
query service's.
"""

from .scheduler import SimulatedScheduler, TaskResult, ScheduleReport
from .incumbent import Incumbent, IncumbentView
from .locks import StripedLocks
from .engine import (ENGINE_NAMES, EngineBody, ExecutionEngine, ProcessEngine,
                     SequentialEngine, SimulatedEngine, create_engine,
                     start_process_pool)

__all__ = [
    "SimulatedScheduler",
    "TaskResult",
    "ScheduleReport",
    "Incumbent",
    "IncumbentView",
    "StripedLocks",
    "ENGINE_NAMES",
    "EngineBody",
    "ExecutionEngine",
    "SimulatedEngine",
    "SequentialEngine",
    "ProcessEngine",
    "create_engine",
    "start_process_pool",
]
