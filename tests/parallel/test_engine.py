"""Acceptance for the pluggable execution-engine layer.

Pinned properties, per the engine refactor's contract:

* ``engine="sim"`` (the default) is the **bit-identical** continuation of
  the pre-engine solver: the golden counters from the tracing suite are
  asserted through the engine path, field for field.
* ``SequentialEngine`` is equivalent to ``SimulatedEngine(threads=1)``:
  same clique, same ω, bit-identical counters — the one-worker simulation
  admits no visibility lag, so the live incumbent *is* the visible one.
* ``ProcessEngine`` with real workers returns the exact maximum clique —
  on the seed datasets with a pinned pool of 2, and across the full
  dataset registry against the recorded ω values.
* Degradation is graceful and observable: when no multiprocessing start
  method is usable the solve still completes exactly, with the reason
  recorded in the engine's ``fallbacks``.
"""

import pytest

from repro import LazyMCConfig, lazymc
from repro.datasets import EXPECTED_OMEGA, load, names
from repro.instrument import Counters
from repro.parallel import (EngineBody, Incumbent, ProcessEngine,
                            SequentialEngine, SimulatedEngine, create_engine)

from tests.trace.test_determinism import GOLDEN, nonzero


class TestCreateEngine:
    def test_names(self):
        assert isinstance(create_engine("sim", threads=4), SimulatedEngine)
        assert isinstance(create_engine("seq"), SequentialEngine)
        assert isinstance(create_engine("process", processes=2), ProcessEngine)

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError):
            create_engine("threads")

    def test_process_auto_sizing_floors_at_two(self):
        # Even on a 1-CPU machine the auto-sized pool has >= 2 workers:
        # incumbent sharing across workers needs somebody to share with.
        eng = create_engine("process", processes=0)
        assert eng.processes >= 2
        eng.close()

    def test_config_validates_engine(self):
        with pytest.raises(ValueError):
            LazyMCConfig(engine="turbo")
        with pytest.raises(ValueError):
            LazyMCConfig(processes=-1)

    def test_shared_counters_instance(self):
        c = Counters()
        eng = create_engine("seq", counters=c)
        assert eng.counters is c


class TestSimIsGoldenDefault:
    """The default engine is the simulated scheduler, bit for bit."""

    def test_default_config_engine_is_sim(self):
        assert LazyMCConfig().engine == "sim"

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_sim_engine_matches_golden(self, name):
        result = lazymc(load(name), LazyMCConfig(engine="sim"))
        assert result.omega == GOLDEN[name]["omega"]
        assert result.counters.work == GOLDEN[name]["work"]
        assert nonzero(result.counters) == GOLDEN[name]["counters"]
        assert result.engine["backend"] == "sim"
        assert result.engine["fallbacks"] == []


class TestSequentialEquivalence:
    """seq == sim(threads=1): same answer, bit-identical counters."""

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_counters_bit_identical(self, name):
        graph = load(name)
        sim = lazymc(graph, LazyMCConfig(threads=1, engine="sim"))
        seq = lazymc(graph, LazyMCConfig(engine="seq"))
        assert seq.omega == sim.omega
        assert seq.clique == sim.clique
        assert seq.counters.as_dict() == sim.counters.as_dict()
        # And both equal the pinned golden values, closing the loop.
        assert nonzero(seq.counters) == GOLDEN[name]["counters"]

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_schedule_totals_match(self, name):
        graph = load(name)
        sim = lazymc(graph, LazyMCConfig(threads=1, engine="sim"))
        seq = lazymc(graph, LazyMCConfig(engine="seq"))
        assert seq.schedule.total_work == sim.schedule.total_work
        assert seq.schedule.makespan == sim.schedule.makespan

    def test_seq_engine_section(self):
        result = lazymc(load("dblp"), LazyMCConfig(engine="seq"))
        assert result.engine["backend"] == "seq"
        assert result.engine["workers"] == 1


class TestProcessEngineExact:
    """Real multiprocessing returns the exact maximum clique."""

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_seed_datasets_with_two_workers(self, name):
        graph = load(name)
        result = lazymc(graph, LazyMCConfig(engine="process", processes=2))
        assert result.omega == GOLDEN[name]["omega"]
        assert result.verify(graph)
        assert result.engine["backend"] == "process"
        assert result.engine["workers"] == 2

    def test_full_registry_exact(self):
        """Every registry analogue solves to its recorded ω on real
        processes — the engine-refactor acceptance sweep."""
        for name in names():
            graph = load(name)
            result = lazymc(graph, LazyMCConfig(engine="process",
                                                processes=2,
                                                max_seconds=120))
            assert not result.timed_out, name
            assert result.omega == EXPECTED_OMEGA[name], name
            assert result.verify(graph), name

    def test_publications_cross_workers(self):
        """The systematic phase's incumbent travels between processes:
        the engine records publications and the schedule shows them."""
        result = lazymc(load("WormNet"),
                        LazyMCConfig(engine="process", processes=2))
        assert result.engine["publications"] >= 1
        assert result.engine["wall_seconds"] > 0.0

    def test_pmc_on_process_engine(self):
        from repro.baselines import pmc

        graph = load("dblp")
        result = pmc(graph, engine="process", processes=2)
        assert result.omega == EXPECTED_OMEGA["dblp"]
        assert result.verify(graph)
        assert result.engine["backend"] == "process"


class TestProcessBudgetOvershoot:
    """Workers run without the in-band budget; the parent checks it after
    every parfor, so a work budget overshoots by at most one parfor."""

    @pytest.mark.parametrize("name", ["HS-CX", "mouse"])
    def test_only_the_last_parfor_ends_past_the_budget(self, name,
                                                       monkeypatch):
        graph = load(name)
        full = lazymc(graph, LazyMCConfig(engine="process", processes=2))
        systematic = full.timers.work["systematic"]
        max_work = full.counters.work - systematic + systematic // 2

        ends = []
        parfor = ProcessEngine.parfor

        def spy(self, tasks, body, incumbent):
            try:
                return parfor(self, tasks, body, incumbent)
            finally:
                ends.append(self.counters.work)

        monkeypatch.setattr(ProcessEngine, "parfor", spy)
        result = lazymc(graph, LazyMCConfig(engine="process", processes=2,
                                            max_work=max_work))
        assert result.timed_out
        assert len(ends) >= 2
        assert all(work <= max_work for work in ends[:-1])


def _break_start_methods(monkeypatch):
    import multiprocessing as mp

    def broken(method=None):
        raise ValueError(f"start method {method!r} unavailable (test)")

    monkeypatch.setattr(mp, "get_context", broken)


class TestProcessEngineFallback:
    """No usable start method -> inline execution, reason recorded."""

    def test_start_method_failure_falls_back(self, monkeypatch):
        _break_start_methods(monkeypatch)
        # WormNet (not dblp): the solve must actually reach the pool —
        # dblp's systematic seeds all die in the filters before a parfor
        # with a shippable body ever needs workers.
        graph = load("WormNet")
        result = lazymc(graph, LazyMCConfig(engine="process", processes=2))
        assert result.omega == EXPECTED_OMEGA["WormNet"]
        assert result.verify(graph)
        assert any("start_method" in f for f in result.engine["fallbacks"])
        assert result.engine["start_method"] is None

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_inline_fallback_equals_seq(self, monkeypatch, name):
        """Inline, the process engine publishes at parfor start and every
        task sees the live incumbent: the same search as ``seq``."""
        _break_start_methods(monkeypatch)
        graph = load(name)
        seq = lazymc(graph, LazyMCConfig(engine="seq"))
        inline = lazymc(graph, LazyMCConfig(engine="process", processes=2))
        assert inline.omega == seq.omega
        assert inline.clique == seq.clique
        assert inline.counters.as_dict() == seq.counters.as_dict()
        assert inline.schedule.total_work == seq.schedule.total_work

    def test_no_worker_context_is_recorded_not_fatal(self):
        eng = ProcessEngine(processes=2)
        incumbent = Incumbent()
        body = EngineBody(inline=lambda t, v, c: t, worker=_echo_worker)
        results = eng.parfor([1, 2, 3], body, incumbent)
        assert [r.value for r in results] == [1, 2, 3]
        assert "no worker context installed" in eng.fallbacks
        eng.close()

    def test_rejects_nonpositive_processes(self):
        with pytest.raises(ValueError):
            ProcessEngine(processes=0)


def _echo_worker(ctx, task, view, counters):
    return task, None


def _publishing_worker(ctx, task, view, counters):
    counters.elements_scanned += 1
    if task == 0:
        view.offer(list(range(5)))
    return task, None


class TestEngineUnits:
    def test_seq_counts_publications(self):
        eng = SequentialEngine()
        incumbent = Incumbent()
        body = EngineBody(
            inline=lambda t, v, c: _publishing_worker(None, t, v, c)[0],
            worker=_publishing_worker)
        eng.parfor([0, 1], body, incumbent)
        assert eng.publications == 1
        assert incumbent.size == 5

    def test_process_parfor_ships_worker(self):
        eng = ProcessEngine(processes=2)
        eng.set_worker_context({})
        incumbent = Incumbent()
        body = EngineBody(
            inline=lambda t, v, c: _publishing_worker(None, t, v, c)[0],
            worker=_publishing_worker)
        results = eng.parfor(list(range(8)), body, incumbent)
        eng.close()
        if eng.fallbacks:  # no start method in this environment
            pytest.skip(f"no multiprocessing here: {eng.fallbacks}")
        assert sorted(r.value for r in results) == list(range(8))
        assert incumbent.size == 5
        assert eng.publications == 1
        assert eng.counters.work == 8

    def test_info_shape(self):
        for engine_name in ("sim", "seq"):
            info = create_engine(engine_name).info()
            assert set(info) == {"backend", "workers", "makespan",
                                 "total_work", "tasks", "publications",
                                 "wall_seconds", "start_method", "fallbacks"}

