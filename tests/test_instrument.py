"""Tests for counters, phase timers and work budgets."""

import time

import pytest

from repro.errors import BudgetExceeded
from repro.instrument import Counters, PhaseTimer, PhaseTimers, WorkBudget


class TestCounters:
    def test_defaults_zero(self):
        c = Counters()
        assert c.work == 0
        assert all(v == 0 for v in c.as_dict().values())

    def test_merge(self):
        a = Counters(elements_scanned=5, intersections=2)
        b = Counters(elements_scanned=3, branch_nodes=7)
        a.merge(b)
        assert a.elements_scanned == 8
        assert a.intersections == 2
        assert a.branch_nodes == 7

    def test_copy_independent(self):
        a = Counters(elements_scanned=1)
        b = a.copy()
        b.elements_scanned = 99
        assert a.elements_scanned == 1

    def test_work_definition(self):
        c = Counters(elements_scanned=10, branch_nodes=5, hash_inserts=2,
                     intersections=100)  # intersections don't count as work
        assert c.work == 17

    def test_repr_compact(self):
        c = Counters(elements_scanned=3)
        assert "elements_scanned=3" in repr(c)
        assert "branch_nodes" not in repr(c)

    def test_merge_round_trips_every_field(self):
        # Walk the dataclass fields so a future counter added to Counters
        # cannot be silently dropped by merge: every field set to a
        # distinct nonzero value must come through doubled.
        from dataclasses import fields

        names = [f.name for f in fields(Counters)]
        assert "words_scanned" in names  # the bit-kernel work unit
        a = Counters(**{name: i + 1 for i, name in enumerate(names)})
        b = Counters(**{name: i + 1 for i, name in enumerate(names)})
        a.merge(b)
        for i, name in enumerate(names):
            assert getattr(a, name) == 2 * (i + 1), name

    def test_copy_round_trips_every_field(self):
        from dataclasses import fields

        names = [f.name for f in fields(Counters)]
        a = Counters(**{name: i + 1 for i, name in enumerate(names)})
        b = a.copy()
        assert b.as_dict() == a.as_dict()
        for name in names:  # fully independent storage
            setattr(b, name, 0)
        for i, name in enumerate(names):
            assert getattr(a, name) == i + 1, name

    def test_as_dict_covers_every_field(self):
        # merge, copy and as_dict walk COUNTER_NAMES, computed once from
        # the fields: with a distinct value per field, a field the tuple
        # skipped or swapped would show here and in the round trips above.
        from dataclasses import fields

        from repro.instrument import COUNTER_NAMES

        names = [f.name for f in fields(Counters)]
        assert list(COUNTER_NAMES) == names
        values = {name: i + 1 for i, name in enumerate(names)}
        assert Counters(**values).as_dict() == values

    def test_words_scanned_counts_as_work(self):
        c = Counters(elements_scanned=3, words_scanned=4, branch_nodes=2,
                     hash_inserts=1)
        assert c.work == 10


class TestPhaseTimers:
    def test_add_and_total(self):
        t = PhaseTimers()
        t.add("a", 1.0, 10)
        t.add("b", 3.0, 30)
        t.add("a", 1.0, 5)
        assert t.total_seconds() == pytest.approx(5.0)
        assert t.seconds["a"] == pytest.approx(2.0)
        assert t.work["a"] == 15

    def test_relative(self):
        t = PhaseTimers()
        t.add("a", 1.0)
        t.add("b", 3.0)
        rel = t.relative()
        assert rel["a"] == pytest.approx(0.25)
        assert rel["b"] == pytest.approx(0.75)

    def test_relative_empty(self):
        assert PhaseTimers().relative() == {}

    def test_phase_timer_context(self):
        timers = PhaseTimers()
        counters = Counters()
        with PhaseTimer(timers, "phase", counters):
            counters.elements_scanned += 42
            time.sleep(0.01)
        assert timers.work["phase"] == 42
        assert timers.seconds["phase"] >= 0.01

    def test_phase_timer_without_counters(self):
        timers = PhaseTimers()
        with PhaseTimer(timers, "p"):
            pass
        assert timers.work["p"] == 0

    def test_phase_timer_nesting_double_charges_inner_work(self):
        # The documented contract: work attribution is the counter delta
        # across the phase, so nested phases must not overlap — the inner
        # phase's work is charged to BOTH phases when they do.  This test
        # pins that semantics; sequential phases (as the solver uses them)
        # partition work exactly.
        timers = PhaseTimers()
        counters = Counters()
        with PhaseTimer(timers, "outer", counters):
            counters.elements_scanned += 5
            with PhaseTimer(timers, "inner", counters):
                counters.elements_scanned += 7
            counters.elements_scanned += 3
        assert timers.work["inner"] == 7
        assert timers.work["outer"] == 15  # includes the inner 7

    def test_phase_timer_sequential_phases_partition_work(self):
        timers = PhaseTimers()
        counters = Counters()
        with PhaseTimer(timers, "a", counters):
            counters.elements_scanned += 5
        with PhaseTimer(timers, "b", counters):
            counters.words_scanned += 7
        assert timers.work["a"] == 5
        assert timers.work["b"] == 7
        assert sum(timers.work.values()) == counters.work

    def test_phase_timer_reentrant_same_phase_accumulates(self):
        timers = PhaseTimers()
        counters = Counters()
        for add in (4, 6):
            with PhaseTimer(timers, "again", counters):
                counters.elements_scanned += add
        assert timers.work["again"] == 10
        assert list(timers.work) == ["again"]  # one entry, accumulated

    def test_phase_timer_records_on_exception(self):
        timers = PhaseTimers()
        counters = Counters()
        with pytest.raises(RuntimeError):
            with PhaseTimer(timers, "burst", counters):
                counters.elements_scanned += 9
                raise RuntimeError("boom")
        assert timers.work["burst"] == 9


class TestWorkBudget:
    def test_work_limit(self):
        c = Counters()
        b = WorkBudget(max_work=10, counters=c)
        b.check()  # under budget: fine
        c.elements_scanned = 11
        with pytest.raises(BudgetExceeded):
            b.check()

    def test_unlimited(self):
        b = WorkBudget.unlimited()
        for _ in range(1000):
            b.check()

    def test_wall_clock_limit(self):
        b = WorkBudget(max_seconds=0.01)
        time.sleep(0.02)
        with pytest.raises(BudgetExceeded):
            for _ in range(100000):
                b.check()

    def test_no_counters_means_no_work_check(self):
        b = WorkBudget(max_work=1)  # no counters attached
        b.check()


class TestHistogram:
    def test_observe_count_and_sum(self):
        from repro.instrument import Histogram

        h = Histogram(buckets=(1.0, 10.0, 100.0))
        for v in (0.5, 5.0, 50.0, 500.0):
            h.observe(v)
        assert h.count == 4
        assert h.total == 555.5
        assert h.counts == [1, 1, 1, 1]  # one per bucket + one overflow

    def test_rejects_bad_buckets(self):
        from repro.instrument import Histogram

        with pytest.raises(ValueError):
            Histogram(buckets=())
        with pytest.raises(ValueError):
            Histogram(buckets=(10.0, 1.0))

    def test_quantile_bounds(self):
        from repro.instrument import Histogram

        h = Histogram(buckets=(1.0, 10.0, 100.0))
        assert h.quantile(0.5) == 0.0  # empty
        for _ in range(99):
            h.observe(0.5)
        h.observe(5000.0)
        assert h.quantile(0.5) == 1.0
        assert h.quantile(1.0) == float("inf")
        with pytest.raises(ValueError):
            h.quantile(1.5)

    def test_as_dict_shape(self):
        from repro.instrument import Histogram

        h = Histogram(buckets=(1.0, 2.0))
        h.observe(1.5)
        d = h.as_dict()
        assert d["count"] == 1
        assert d["buckets"]["2"] == 1
        assert d["overflow"] == 0


class TestMetricsRegistry:
    def test_counters_and_gauges(self):
        from repro.instrument import MetricsRegistry

        reg = MetricsRegistry()
        reg.inc("jobs")
        reg.inc("jobs", 4)
        reg.set_gauge("depth", 3.5)
        assert reg.counter("jobs") == 5
        assert reg.counter("never") == 0
        assert reg.gauge("depth") == 3.5

    def test_histogram_created_once(self):
        from repro.instrument import MetricsRegistry

        reg = MetricsRegistry()
        h1 = reg.histogram("lat", buckets=(1.0, 2.0))
        h2 = reg.histogram("lat", buckets=(5.0, 6.0))  # ignored: exists
        assert h1 is h2
        reg.observe("lat", 1.5, buckets=(9.0,))
        assert h1.count == 1

    def test_snapshot(self):
        from repro.instrument import MetricsRegistry

        reg = MetricsRegistry()
        reg.inc("a")
        reg.set_gauge("g", 1.0)
        reg.observe("h", 0.5)
        snap = reg.snapshot()
        assert snap["counters"] == {"a": 1}
        assert snap["gauges"] == {"g": 1.0}
        assert snap["histograms"]["h"]["count"] == 1

    def test_prometheus_exposition(self):
        from repro.instrument import MetricsRegistry

        reg = MetricsRegistry()
        reg.inc("jobs_done", 3)
        reg.set_gauge("queue_depth", 2)
        h = reg.histogram("lat", buckets=(1.0, 10.0))
        h.observe(0.5)
        h.observe(5.0)
        h.observe(50.0)
        page = reg.to_prometheus()
        assert "# TYPE lazymc_jobs_done counter" in page
        assert "lazymc_jobs_done 3" in page
        assert "lazymc_queue_depth 2" in page
        # Cumulative buckets: 1 at le=1, 2 at le=10, 3 at +Inf.
        assert 'lazymc_lat_bucket{le="1"} 1' in page
        assert 'lazymc_lat_bucket{le="10"} 2' in page
        assert 'lazymc_lat_bucket{le="+Inf"} 3' in page
        assert "lazymc_lat_count 3" in page

    def test_thread_safety_of_inc(self):
        import threading

        from repro.instrument import MetricsRegistry

        reg = MetricsRegistry()

        def work():
            for _ in range(1000):
                reg.inc("n")

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.counter("n") == 8000
