"""Tests for the simulated parallel scheduler, incumbent and locks."""

import threading

import pytest

from repro.instrument import Counters
from repro.parallel import Incumbent, IncumbentView, SimulatedScheduler, StripedLocks


class TestIncumbent:
    def test_offer_monotone(self):
        inc = Incumbent()
        assert inc.offer([1, 2])
        assert not inc.offer([3])
        assert inc.offer([4, 5, 6])
        assert inc.size == 3
        assert inc.clique == [4, 5, 6]

    def test_initial_clique(self):
        inc = Incumbent([7, 8])
        assert inc.size == 2

    def test_visibility_by_time(self):
        inc = Incumbent()
        inc.offer([1, 2], time=10.0)
        inc.offer([1, 2, 3], time=20.0)
        assert inc.visible_at(5.0) == (0, [])
        assert inc.visible_at(10.0)[0] == 2
        assert inc.visible_at(25.0)[0] == 3

    def test_history(self):
        inc = Incumbent()
        inc.offer([1], time=1.0)
        inc.offer([1, 2], time=2.0)
        assert inc.history == [(1.0, 1), (2.0, 2)]


class TestIncumbentView:
    def test_sees_own_improvements(self):
        view = IncumbentView(2, [1, 2])
        assert view.size == 2
        assert view.offer([5, 6, 7])
        assert view.size == 3
        assert view.pending == [5, 6, 7]

    def test_rejects_non_improvement(self):
        view = IncumbentView(3, [1, 2, 3])
        assert not view.offer([4, 5])
        assert view.pending is None

    def test_clique_reflects_local_best(self):
        view = IncumbentView(1, [9])
        view.offer([1, 2])
        assert view.clique == [1, 2]


class TestScheduler:
    def test_single_thread_is_sequential(self):
        """T=1: every task sees all earlier improvements."""
        inc = Incumbent()
        sched = SimulatedScheduler(threads=1)
        seen = []

        def run(task, view, counters):
            seen.append(view.size)
            view.offer(list(range(task)))
            counters.branch_nodes += 10

        sched.parfor([1, 2, 3, 4], run, inc)
        assert seen == [0, 1, 2, 3]
        assert inc.size == 4

    def test_parallel_staleness(self):
        """With T >= tasks, all tasks start at t=0 and see nothing."""
        inc = Incumbent()
        sched = SimulatedScheduler(threads=8)
        seen = []

        def run(task, view, counters):
            seen.append(view.size)
            view.offer(list(range(task)))
            counters.branch_nodes += 10

        sched.parfor([1, 2, 3, 4], run, inc)
        assert seen == [0, 0, 0, 0]
        assert inc.size == 4  # improvements still merge at the end

    def test_work_inflation_measured(self):
        """Stale incumbents -> more work; the Fig. 7 phenomenon."""
        def make_run():
            def run(task, view, counters):
                # Task cost shrinks as the visible incumbent grows.
                counters.branch_nodes += max(100 - 10 * view.size, 10)
                view.offer(list(range(task)))
            return run

        work = {}
        for t in (1, 8):
            inc = Incumbent()
            sched = SimulatedScheduler(threads=t)
            sched.parfor(list(range(1, 9)), make_run(), inc)
            work[t] = sched.report.total_work
        assert work[8] > work[1]

    def test_makespan_less_than_work_when_parallel(self):
        inc = Incumbent()
        sched = SimulatedScheduler(threads=4)

        def run(task, view, counters):
            counters.branch_nodes += 50

        sched.parfor(list(range(8)), run, inc)
        assert sched.report.makespan < sched.report.total_work
        # 8 tasks x 50 units over 4 workers = 100 units of makespan.
        assert sched.report.makespan == pytest.approx(100.0)

    def test_determinism(self):
        def run(task, view, counters):
            counters.branch_nodes += task * 7 % 13 + 1
            view.offer(list(range(task % 3)))

        reports = []
        for _ in range(2):
            inc = Incumbent()
            sched = SimulatedScheduler(threads=5)
            sched.parfor(list(range(20)), run, inc)
            reports.append((sched.report.makespan, sched.report.total_work))
        assert reports[0] == reports[1]

    def test_serial_section_advances_time(self):
        sched = SimulatedScheduler(threads=4)
        sched.run_serial_section(100)
        assert sched.now == 100
        assert sched.report.makespan == 100

    def test_results_in_task_order(self):
        inc = Incumbent()
        sched = SimulatedScheduler(threads=3)
        results = sched.parfor([10, 20, 30], lambda t, v, c: t * 2, inc)
        assert [r.value for r in results] == [20, 40, 60]

    def test_invalid_threads(self):
        with pytest.raises(ValueError):
            SimulatedScheduler(threads=0)

    def test_counters_merged_into_global(self):
        c = Counters()
        sched = SimulatedScheduler(threads=2, counters=c)
        inc = Incumbent()

        def run(task, view, counters):
            counters.intersections += 1
            counters.elements_scanned += 5

        sched.parfor([1, 2, 3], run, inc)
        assert c.intersections == 3
        assert c.elements_scanned == 15


class TestLocks:
    def test_striped_locks_shared_by_stripe(self):
        locks = StripedLocks(stripes=4)
        assert locks.lock_for(1) is locks.lock_for(5)
        assert len(locks) == 4

    def test_invalid_stripes(self):
        with pytest.raises(ValueError):
            StripedLocks(stripes=0)

    @staticmethod
    def _lazy_graph():
        """A lazy graph, whose neighbourhood builds take the striped locks
        in the double-checked shape of Alg. 2."""
        from repro.core import LazyGraph, LazyMCConfig
        from repro.graph import complete_graph, coreness, coreness_degree_order

        g = complete_graph(6)
        core = coreness(g)
        return LazyGraph(g, coreness_degree_order(g, core), core,
                         LazyMCConfig(), Counters())

    def test_double_checked_constructs_once(self):
        lazy = self._lazy_graph()
        reps = [lazy.hashed_neighborhood(0) for _ in range(3)]
        assert all(rep is reps[0] for rep in reps)
        assert lazy.counters.neighborhoods_built_hash == 1

    def test_double_checked_under_real_threads(self):
        lazy = self._lazy_graph()
        barrier = threading.Barrier(16)
        reps = []

        def build():
            barrier.wait()
            reps.append(lazy.hashed_neighborhood(0))

        threads = [threading.Thread(target=build) for _ in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(reps) == 16 and all(rep is reps[0] for rep in reps)
        assert lazy.counters.neighborhoods_built_hash == 1


class TestSchedulerInvariants:
    def test_makespan_work_bounds(self):
        """makespan <= total_work <= threads * makespan for any parfor."""
        import numpy as np

        rng = np.random.default_rng(5)
        for threads in (1, 3, 7):
            inc = Incumbent()
            sched = SimulatedScheduler(threads=threads)
            costs = [int(c) for c in rng.integers(1, 50, size=30)]

            def run(task, view, counters):
                counters.branch_nodes += task

            sched.parfor(costs, run, inc)
            r = sched.report
            assert r.makespan <= r.total_work + 1e-9
            assert r.total_work <= threads * r.makespan + 1e-9

    def test_single_thread_makespan_equals_work(self):
        inc = Incumbent()
        sched = SimulatedScheduler(threads=1)
        sched.parfor([5, 7, 11], lambda t, v, c: setattr(
            c, "branch_nodes", t), inc)
        assert sched.report.makespan == sched.report.total_work
