"""The parfor loop against a frozen copy of its earlier form.

The earlier loop ran every task against fresh task-local counters and
merged them into the run's counters afterwards, popped and pushed the
worker heap, and scanned every publication for each task's view.  The
loop now lets tasks charge the run's counters and reads the visible
incumbent in O(1) when the newest publication is visible.  Both must
give the same schedule, incumbent and counters for any parfor.
"""

import heapq
import sys
import threading
from dataclasses import astuple, dataclass

from hypothesis import given, settings, strategies as st

from repro.instrument import Counters
from repro.parallel import Incumbent, IncumbentView, SimulatedScheduler


@dataclass
class _OldTaskResult:
    task: object
    start: float
    finish: float
    cost: int
    worker: int
    value: object = None


def _old_visible_at(incumbent: Incumbent, time: float):
    best_size = 0
    best: list[int] = []
    with incumbent._lock:
        for pub in incumbent._publications:
            if pub.time <= time and pub.size > best_size:
                best_size = pub.size
                best = pub.clique
    return best_size, list(best)


class _FrozenScheduler(SimulatedScheduler):
    """The earlier parfor: task-local counters, merge, full scan."""

    def parfor(self, tasks, run_task, incumbent):
        workers = [(self.now, w) for w in range(self.threads)]
        heapq.heapify(workers)
        results = []
        end = self.now
        for task in tasks:
            t_start, w = heapq.heappop(workers)
            size, clique = _old_visible_at(incumbent, t_start)
            view = IncumbentView(size, clique)
            local = Counters()
            value = run_task(task, view, local)
            pending = view.pending
            cost = max(local.work, 1)
            t_finish = t_start + cost
            t_publish = t_finish if self.publish_at_finish else self.now
            if pending is not None and incumbent.offer(pending, time=t_publish):
                self.publications += 1
            self.counters.merge(local)
            results.append(_OldTaskResult(task=task, start=t_start,
                                          finish=t_finish, cost=cost,
                                          worker=w, value=value))
            heapq.heappush(workers, (t_finish, w))
            end = max(end, t_finish)
        makespan = end - self.now
        self.report.makespan += makespan
        self.report.total_work += sum(r.cost for r in results)
        self.report.tasks.extend(results)
        self.now = end
        return results


def _run_task(task, view, counters):
    """Cost and offer both depend on the visible incumbent, so any
    difference in visibility shows in the schedule."""
    cost, offer = task
    counters.branch_nodes += cost + view.size % 3 if cost else 0
    counters.intersections += 1
    counters.hash_lookups += view.size
    if offer is not None:
        view.offer(list(range(100, 100 + offer)))
    return view.size


TASK = st.tuples(st.integers(0, 40),
                 st.one_of(st.none(), st.integers(0, 8)))


def _drive(scheduler_cls, threads, publish_at_finish, initial, parfors):
    incumbent = Incumbent(list(range(initial)))
    sched = scheduler_cls(threads)
    sched.publish_at_finish = publish_at_finish
    results = []
    for tasks in parfors:
        results.append([astuple(r) for r in
                        sched.parfor(tasks, _run_task, incumbent)])
    return (results, sched.report.makespan, sched.report.total_work,
            [astuple(r) for r in sched.report.tasks], sched.now,
            sched.publications, incumbent.history, incumbent.clique,
            sched.counters.as_dict())


@settings(max_examples=300, deadline=None)
@given(threads=st.integers(1, 4), publish_at_finish=st.booleans(),
       initial=st.integers(0, 3),
       parfors=st.lists(st.lists(TASK, max_size=25), min_size=1, max_size=3))
def test_parfor_matches_frozen_loop(threads, publish_at_finish, initial,
                                    parfors):
    assert _drive(SimulatedScheduler, threads, publish_at_finish, initial,
                  parfors) == _drive(_FrozenScheduler, threads,
                                     publish_at_finish, initial, parfors)


def test_visible_at_matches_full_scan_under_out_of_order_times():
    """At T > 1 a later, larger publication can carry an earlier time."""
    inc = Incumbent([1])
    inc.offer([1, 2], time=50.0)
    inc.offer([1, 2, 3], time=20.0)
    inc.offer([1, 2, 3, 4], time=80.0)
    for t in (0.0, 10.0, 20.0, 49.0, 50.0, 79.0, 80.0, 1e9):
        assert inc.visible_at(t) == _old_visible_at(inc, t)


def test_visible_at_reads_safely_beside_publishing_threads():
    """The O(1) read takes no lock: readers racing two publishers must
    only ever see a whole publication, and sizes that never shrink."""
    inc = Incumbent()
    stop = threading.Event()
    errors = []

    def publish(offset):
        for size in range(1, 400):
            inc.offer(list(range(offset, offset + size)), time=float(size))

    def read():
        last = 0
        while not stop.is_set():
            size, clique = inc.visible_at(1e9)
            if len(clique) != size or size < last:
                errors.append((size, clique))
            last = size

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        readers = [threading.Thread(target=read) for _ in range(3)]
        writers = [threading.Thread(target=publish, args=(k * 1000,))
                   for k in range(2)]
        for thread in readers + writers:
            thread.start()
        for thread in writers:
            thread.join(timeout=60)
        stop.set()
        for thread in readers:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in readers + writers)
    assert errors == []
    assert inc.visible_at(1e9)[0] == 399
