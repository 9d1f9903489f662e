"""Deterministic event-driven simulation of a parallel `parfor` (§V-F).

Model
-----
``T`` virtual workers pull tasks from the parfor's task list in order.  The
next task starts on the worker with the smallest virtual time ``t``.  The
task executes *now* (real Python, sequentially — the simulation is about
visibility, not concurrency) against an :class:`IncumbentView` frozen at
``t``; its cost ``c`` is the work it added to the run's counters; the worker
advances to ``t + c``; any incumbent improvement is published at ``t + c``
and becomes visible only to tasks starting later.

Properties:

* ``T = 1`` reduces exactly to sequential execution with a live incumbent.
* Larger ``T`` exhibits the paper's *work inflation*: concurrent tasks run
  against stale incumbents, filter less, and burn more operations.
* Simulated makespan (max worker finish time) is the Fig. 7 "time" axis;
  total task cost is the "work" axis.
* Fully deterministic: same inputs → same schedule, same counters.

This is the documented substitution for Parlay threads (see DESIGN.md §2):
it executes the same task graph with the same visibility semantics a real
greedy work-stealing runtime would, measured in operations instead of
nanoseconds.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..instrument import Counters
from .incumbent import Incumbent, IncumbentView


@dataclass(slots=True)
class TaskResult:
    """Outcome of one simulated task."""

    task: object
    start: float
    finish: float
    cost: int
    worker: int
    value: object = None


@dataclass
class ScheduleReport:
    """Aggregate of one parfor: the Fig. 7 raw numbers."""

    makespan: float = 0.0
    total_work: int = 0
    tasks: list[TaskResult] = field(default_factory=list)

    def extend(self, other: "ScheduleReport") -> None:
        """Sequentially compose another parfor's report into this one."""
        # Sequential composition of two parfors: makespans add.
        self.makespan += other.makespan
        self.total_work += other.total_work
        self.tasks.extend(other.tasks)


class SimulatedScheduler:
    """Executes parfors under the virtual-time model.

    One scheduler instance is threaded through a whole solver run; its
    cumulative report is the run's parallel-cost account.  ``now`` carries
    virtual time across consecutive parfors (phases happen one after the
    other, as in the paper's Alg. 1).
    """

    #: When a task's incumbent improvement becomes visible: at the task's
    #: virtual finish time (the simulator's visibility lag), or — when
    #: ``False`` — at the start of its parfor, so every task scheduled
    #: after it sees it (the live incumbent of tasks that run outside the
    #: virtual clock, e.g. on real processes).
    publish_at_finish = True

    def __init__(self, threads: int = 1, counters: Counters | None = None):
        if threads < 1:
            raise ValueError("threads must be >= 1")
        self.threads = threads
        self.counters = counters if counters is not None else Counters()
        self.report = ScheduleReport()
        self.now = 0.0
        self.publications = 0

    def parfor(
        self,
        tasks: Sequence,
        run_task: Callable[[object, IncumbentView, Counters], object],
        incumbent: Incumbent,
    ) -> list[TaskResult]:
        """Run ``run_task(task, view, counters)`` for every task.

        ``counters`` is the run's own :attr:`counters`: a task charges its
        work there directly, and its cost is the ``work`` it added (at
        least one unit).  ``run_task`` must do all incumbent reads through
        the view and all incumbent writes through ``view.offer``; the
        scheduler publishes pending improvements as
        :attr:`publish_at_finish` says.  Each task starts on the worker
        with the smallest virtual time and sees the incumbent as published
        by then.  Returns per-task results in task order.
        """
        counters = self.counters
        start = self.now
        publish_at_finish = self.publish_at_finish
        visible_at = incumbent.visible_at
        heapreplace = heapq.heapreplace
        # (time, worker) pairs, sorted and so already a heap.
        workers = [(start, w) for w in range(self.threads)]
        results: list[TaskResult] = []
        append = results.append
        total = 0
        end = start
        try:
            for task in tasks:
                t_start, w = workers[0]
                view = IncumbentView(*visible_at(t_start))
                before = counters.work
                value = run_task(task, view, counters)
                cost = counters.work - before
                if cost < 1:
                    cost = 1
                t_finish = t_start + cost
                pending = view.pending
                if pending is not None and incumbent.offer(
                        pending, t_finish if publish_at_finish else start):
                    self.publications += 1
                append(TaskResult(task, t_start, t_finish, cost, w, value))
                heapreplace(workers, (t_finish, w))
                total += cost
                if t_finish > end:
                    end = t_finish
        finally:
            # A task that raises (a tripped budget) still leaves the
            # tasks finished before it in the report.
            self.report.makespan += end - start
            self.report.total_work += total
            self.report.tasks.extend(results)
            self.now = end
        return results

    def run_serial_section(self, cost: int, makespan_cost: int | None = None) -> None:
        """Account a non-parfor section (e.g. k-core, sort).

        ``cost`` is the section's total work; ``makespan_cost`` its
        virtual-time contribution (smaller when the section is partially
        parallelizable).  Defaults to fully serial.
        """
        cost = max(cost, 0)
        m = cost if makespan_cost is None else max(makespan_cost, 0)
        self.now += m
        self.report.makespan += m
        self.report.total_work += cost
