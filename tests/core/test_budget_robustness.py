"""Budget-injection robustness: trip the work budget at many points and
verify the solver always degrades gracefully (valid incumbent, flagged
timeout, no exceptions, no corruption)."""

import pytest

from repro import LazyMCConfig, lazymc
from repro.baselines import domega, mcbrb, pmc
from repro.graph import generators
from repro.trace import TraceRecorder
from tests.conftest import brute_force_max_clique, random_graph


class TestBudgetSweepLazyMC:
    @pytest.mark.parametrize("max_work", [1, 10, 100, 1_000, 10_000, 10**9])
    def test_any_budget_yields_valid_state(self, max_work):
        g = random_graph(25, 0.45, seed=77)
        omega = len(brute_force_max_clique(g))
        r = lazymc(g, LazyMCConfig(max_work=max_work))
        # The incumbent is always a real clique of the input graph.
        assert g.is_clique(r.clique)
        assert 1 <= r.omega <= omega
        if not r.timed_out:
            assert r.omega == omega
        if max_work >= 10**9:
            assert not r.timed_out

    def test_budget_monotone_quality(self):
        """More budget never yields a smaller clique (deterministic runs)."""
        g = random_graph(30, 0.4, seed=78)
        sizes = []
        for max_work in (50, 500, 5_000, 50_000, 10**9):
            r = lazymc(g, LazyMCConfig(max_work=max_work))
            sizes.append(r.omega)
        assert sizes == sorted(sizes)


class TestBudgetOvershoot:
    def test_budget_trips_inside_the_running_task(self):
        """A budget that runs out inside a systematic task trips there.

        Tasks charge the run's counters, so the in-band checks at each
        neighbourhood and each branch node see the running task's work:
        the overshoot is at most one neighbourhood's filtering plus one
        branch node, not the rest of the task.  G(120, 0.7) is where the
        costliest task is mostly sub-solver branching.
        """
        g = generators.gnp_random(120, 0.7, seed=2036044446)
        rec = TraceRecorder()
        lazymc(g, tracer=rec)
        begins, costliest = {}, (0, 0)
        for event in rec.events:
            if event.get("name") != "neighborhood":
                continue
            if event["ev"] == "span_begin":
                begins[event["sid"]] = event["vt"]
            else:
                start = begins[event["sid"]]
                costliest = max(costliest, (event["vt"] - start, start))
        cost, start = costliest
        max_work = start + 100
        r = lazymc(g, LazyMCConfig(max_work=max_work))
        assert r.timed_out
        assert 0 < r.counters.work - max_work < cost / 2

    def test_tripped_schedule_is_a_prefix_of_the_complete_one(self):
        """A budget that trips inside a parfor keeps the tasks before it.

        The simulation is deterministic and a budget only stops it, so the
        tripped run's schedule is the complete run's up to the task that
        tripped, and the work counted beyond the schedule is the
        unscheduled work (prepopulate) plus part of that one task.
        """
        g = generators.gnp_random(120, 0.7, seed=2036044446)
        full = lazymc(g)
        tripped = lazymc(g, LazyMCConfig(max_work=524_439))
        assert tripped.timed_out

        def rows(schedule):
            return [(t.task, t.start, t.finish, t.cost, t.worker)
                    for t in schedule.tasks]

        done, every = rows(tripped.schedule), rows(full.schedule)
        assert 0 < len(done) < len(every)
        assert done == every[:len(done)]
        sections = (g.n + 2 * g.m) + 2 * g.n  # k-core and sort
        assert tripped.schedule.total_work == \
            sections + sum(row[3] for row in done)
        unscheduled = full.counters.work - full.schedule.total_work
        tripping_cost = every[len(done)][3]
        assert tripped.counters.work - tripped.schedule.total_work <= \
            unscheduled + tripping_cost


class TestBudgetSweepBaselines:
    @pytest.mark.parametrize("solver", [
        lambda g, w: pmc(g, max_work=w),
        lambda g, w: domega(g, "ls", max_work=w),
        lambda g, w: domega(g, "bs", max_work=w),
        lambda g, w: mcbrb(g, max_work=w),
    ], ids=["pmc", "domega_ls", "domega_bs", "mcbrb"])
    @pytest.mark.parametrize("max_work", [1, 50, 5_000, 10**9])
    def test_baselines_degrade_gracefully(self, solver, max_work):
        g = random_graph(20, 0.4, seed=79)
        omega = len(brute_force_max_clique(g))
        r = solver(g, max_work)
        assert g.is_clique(r.clique)
        assert 0 <= r.omega <= omega
        if not r.timed_out:
            assert r.omega == omega
