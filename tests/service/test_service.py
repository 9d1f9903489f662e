"""Tests for the query service core: cache, degradation, pool, admission."""

import time
from concurrent.futures import CancelledError, Future

import pytest

from repro.datasets import load, load_target
from repro.errors import GraphLoadError, WorkerCrashError
from repro.service import (
    CliqueService,
    JobHandle,
    JobResult,
    JobSpec,
    JobState,
    ServiceConfig,
    SupervisedPool,
)
from repro.service.jobs import DEFAULT_KNOBS, SERVICE_KNOBS

#: Two distinct valid values per service knob.
KNOB_VALUES = {
    "max_work": (100, 200),
    "max_seconds": (1.0, 2.0),
    "engine": ("sim", "seq"),
    "processes": (0, 2),
    "threads": (1, 2),
}


def make_service(**overrides):
    defaults = dict(workers=0, cache_capacity=16)
    defaults.update(overrides)
    return CliqueService(ServiceConfig(**defaults))


class TestJobSpec:
    def test_needs_exactly_one_of_target_graph(self):
        with pytest.raises(ValueError):
            JobSpec()
        with pytest.raises(ValueError):
            JobSpec(target="CAroad", graph=load("CAroad"))

    def test_rejects_unknown_algo(self):
        with pytest.raises(ValueError):
            JobSpec(target="CAroad", algo="quantum")

    def test_rejects_unknown_config_key(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            JobSpec(target="CAroad", config={"filter_rounds": 3})

    def test_knob_values_cover_service_knobs(self):
        assert set(KNOB_VALUES) == set(SERVICE_KNOBS)

    @pytest.mark.parametrize("knob", SERVICE_KNOBS)
    def test_config_key_separates_each_knob(self, knob):
        """Two specs share a key iff they agree on algo and every knob.

        The key is read off the resolved ``LazyMCConfig``, so a knob set
        to its default equals a knob left out.  A knob left out (or
        ``None``) takes the service default, but an explicit value never
        does: ``{"processes": 0}`` keeps 0 (auto) even where the service
        default is 2.
        """
        first, second = KNOB_VALUES[knob]
        a = JobSpec(target="CAroad", config={knob: first})
        b = JobSpec(target="CAroad", config={knob: second})
        assert a.config_key() != b.config_key()
        assert a.config_key() == JobSpec(
            target="CAroad", config={knob: first}).config_key()
        assert a.config_key() != JobSpec(
            target="CAroad", algo="mcbrb", config={knob: first}).config_key()
        default = getattr(JobSpec(target="CAroad").solver_config(), knob)
        assert JobSpec(target="CAroad", config={knob: default}).config_key() \
            == JobSpec(target="CAroad").config_key()


class TestSolvePaths:
    def test_inline_exact_solve(self):
        with make_service() as svc:
            result = svc.solve(JobSpec(target="CAroad"))
            assert result.ok and result.exact
            assert result.omega == 4
            assert result.algo == "lazymc"
            assert not result.cached
            assert result.fingerprint

    def test_direct_graph_submission(self):
        with make_service() as svc:
            result = svc.solve(JobSpec(graph=load("CAroad")))
            assert result.ok and result.omega == 4

    def test_baseline_algo(self):
        with make_service() as svc:
            result = svc.solve(JobSpec(target="CAroad", algo="mcbrb"))
            assert result.ok and result.omega == 4 and result.algo == "mcbrb"

    def test_bad_target_is_structured_failure(self):
        with make_service() as svc:
            result = svc.solve(JobSpec(target="no-such-thing"))
            assert not result.ok
            assert result.error_type == "GraphLoadError"
            assert svc.metrics.counter("jobs_failed") == 1

    def test_load_target_raises_typed_error_not_systemexit(self):
        with pytest.raises(GraphLoadError):
            load_target("no-such-thing")


class TestCaching:
    def test_repeat_query_served_from_cache(self):
        with make_service() as svc:
            first = svc.solve(JobSpec(target="CAroad"))
            second = svc.solve(JobSpec(target="CAroad"))
            assert not first.cached and second.cached
            assert second.omega == first.omega
            assert second.clique == first.clique
            assert svc.metrics.counter("cache_hits") == 1
            assert svc.results.hits == 1

    def test_relabelled_copy_gets_a_clique_in_its_own_labels(self):
        from repro.graph.builders import from_edges

        # Triangle {0, 1, 2} plus pendant 2-3, then the same graph with
        # the triangle on {1, 2, 3}: [0, 1, 2] is not a clique there.
        graph = from_edges(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
        relabelled = from_edges(4, [(1, 2), (2, 3), (1, 3), (3, 0)])
        with make_service() as svc:
            assert svc.solve(JobSpec(graph=graph)).clique == [0, 1, 2]
            second = svc.solve(JobSpec(graph=relabelled))
            assert second.omega == 3
            assert relabelled.is_clique(second.clique)

    def test_wl_equivalent_graphs_get_their_own_omega(self):
        from repro.graph.builders import from_edges

        cycle6 = from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
        triangles = from_edges(6, [(0, 1), (1, 2), (0, 2),
                                   (3, 4), (4, 5), (3, 5)])
        with make_service() as svc:
            first = svc.solve(JobSpec(graph=cycle6))
            second = svc.solve(JobSpec(graph=triangles))
            assert (first.omega, first.exact) == (2, True)
            assert (second.omega, second.exact) == (3, True)

    def test_rewritten_file_is_reread(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n")
        with make_service() as svc:
            first = svc.solve(JobSpec(target=str(path)))
            assert (first.n, first.m, first.omega) == (3, 2, 2)
            path.write_text("0 1\n1 2\n0 2\n2 3\n")
            second = svc.solve(JobSpec(target=str(path)))
            assert (second.n, second.m, second.omega) == (4, 4, 3)
            assert second.exact and not second.cached

    def test_different_config_misses(self):
        with make_service() as svc:
            svc.solve(JobSpec(target="CAroad"))
            other = svc.solve(JobSpec(target="CAroad", algo="mcbrb"))
            assert not other.cached

    def test_use_cache_false_bypasses(self):
        with make_service() as svc:
            svc.solve(JobSpec(target="CAroad", use_cache=False))
            again = svc.solve(JobSpec(target="CAroad", use_cache=False))
            assert not again.cached
            assert svc.metrics.counter("cache_hits") == 0

    def test_lru_eviction_in_service(self):
        with make_service(cache_capacity=1) as svc:
            svc.solve(JobSpec(target="CAroad"))
            svc.solve(JobSpec(target="CAroad", algo="mcbrb"))  # evicts lazymc
            third = svc.solve(JobSpec(target="CAroad"))
            assert not third.cached
            assert svc.results.evictions >= 1


class TestDegradation:
    def test_tiny_budget_returns_degraded_incumbent(self):
        with make_service() as svc:
            result = svc.solve(JobSpec(target="WormNet",
                                       config={"max_work": 200}))
            assert result.ok            # degradation is not an error
            assert not result.exact
            assert result.timed_out
            assert 1 <= result.omega <= 24
            assert len(result.clique) == result.omega
            assert svc.metrics.counter("jobs_degraded") == 1

    def test_degraded_incumbent_is_a_valid_clique(self):
        graph = load("WormNet")
        with make_service() as svc:
            result = svc.solve(JobSpec(graph=graph, config={"max_work": 200}))
            assert graph.is_clique(result.clique)

    def test_default_budget_applied_and_part_of_cache_key(self):
        with make_service(defaults={"max_work": 200}) as svc:
            first = svc.solve(JobSpec(target="WormNet"))
            assert not first.exact      # service default tripped
            second = svc.solve(JobSpec(target="WormNet",
                                       config={"max_work": 200}))
            assert second.cached        # explicit budget == defaulted budget


class TestServiceDefaults:
    def test_job_without_engine_runs_on_service_default(self):
        with make_service(defaults={"engine": "seq"}) as svc:
            result = svc.solve(JobSpec(target="WormNet"))
            assert result.ok and result.omega == 24
            assert result.engine["backend"] == "seq"

    def test_job_value_wins_over_default(self):
        with make_service(defaults={"engine": "seq", "max_work": 200}) as svc:
            result = svc.solve(JobSpec(
                target="WormNet", config={"engine": "sim", "max_work": None}))
            assert result.engine["backend"] == "sim"
            assert not result.exact     # None defers to the default budget

    @pytest.mark.parametrize("knob", sorted(set(SERVICE_KNOBS)
                                            - set(DEFAULT_KNOBS)) + ["bogus"])
    def test_defaults_outside_the_four_rejected(self, knob):
        with pytest.raises(ValueError, match="unknown config keys"):
            ServiceConfig(defaults={knob: 1})

    def test_bad_default_value_rejected(self):
        with pytest.raises(ValueError):
            ServiceConfig(defaults={"max_work": -5})

    def test_specs_resolving_to_one_config_share_a_cache_entry(self):
        with make_service(defaults={"engine": "seq", "processes": 2}) as svc:
            first = svc.solve(JobSpec(target="CAroad"))
            second = svc.solve(JobSpec(target="CAroad", config={
                "engine": "seq", "processes": 2, "threads": 1}))
            assert not first.cached and second.cached
            # An explicit 0 is a value of its own, not "take the default".
            auto = svc.solve(JobSpec(target="CAroad",
                                     config={"processes": 0}))
            assert not auto.cached


class TestAdmission:
    def test_queue_full_rejects_with_structured_error(self):
        with make_service(max_queue_depth=1) as svc:
            class Busy:
                pending = 99
                mode = "inline"
                workers = 0

                def shutdown(self, wait=True):
                    pass

            svc.pool = Busy()
            result = svc.solve(JobSpec(target="CAroad"))
            assert not result.ok
            assert result.error_type == "QueueFullError"
            assert svc.metrics.counter("jobs_rejected") == 1


def _touch(path):
    """Job body that leaves evidence it ran (module level: picklable)."""
    with open(path, "w") as fh:
        fh.write("ran")


class TestWorkerPoolAndConcurrency:
    def test_inline_pool_captures_exceptions(self):
        pool = SupervisedPool(0, max_retries=0)
        future = pool.submit(int, "not-a-number")
        assert isinstance(future.exception(), WorkerCrashError)
        assert "ValueError" in str(future.exception())

    def test_concurrent_submits_through_process_pool(self):
        svc = CliqueService(ServiceConfig(workers=2))
        if svc.pool.mode != "process":
            pytest.skip("multiprocessing unavailable")
        try:
            specs = [JobSpec(target="CAroad", use_cache=False)
                     for _ in range(4)]
            handles = [svc.submit(s) for s in specs]
            results = [h.result(timeout=120) for h in handles]
            assert all(r.ok and r.omega == 4 for r in results)
            assert svc.metrics.counter("jobs_completed") == 4
        finally:
            svc.shutdown()

    def test_queued_job_cancellation(self, tmp_path):
        marker = tmp_path / "ran"
        pool = SupervisedPool(1, max_retries=0)
        try:
            blocker = pool.submit(time.sleep, 1.0)
            if pool.mode != "process":
                pytest.skip("multiprocessing unavailable")
            queued = pool.submit(_touch, str(marker))
            assert queued.cancel()
            assert queued.cancelled()
            blocker.result(timeout=30)
            # The slot the blocker frees goes to the cancelled job; it must
            # be retired there, not run.
            deadline = time.monotonic() + 30
            while pool.pending and time.monotonic() < deadline:
                time.sleep(0.01)
            assert pool.pending == 0
            assert not marker.exists()
        finally:
            pool.shutdown()

    def test_handle_cancel_reaches_worker_future(self):
        spec = JobSpec(target="CAroad")
        inner: Future = Future()
        handle = JobHandle(spec, Future(), canceller=inner.cancel)
        assert handle.cancel()
        assert inner.cancelled()

    def test_handle_states(self):
        spec = JobSpec(target="CAroad")
        future: Future = Future()
        handle = JobHandle(spec, future)
        assert handle.state is JobState.QUEUED
        future.set_result(JobResult(ok=True))
        assert handle.state is JobState.DONE
        assert handle.done()

    def test_cancelled_handle_raises_on_result(self):
        spec = JobSpec(target="CAroad")
        future: Future = Future()
        handle = JobHandle(spec, future)
        assert handle.cancel()
        assert handle.state is JobState.CANCELLED
        with pytest.raises(CancelledError):
            handle.result(timeout=1)


class TestResultRecord:
    def test_round_trips_through_dict(self):
        result = JobResult(ok=True, algo="lazymc", omega=4, clique=[1, 2, 3, 4],
                           exact=True, wall_seconds=0.1, work=123,
                           fingerprint="ab")
        assert JobResult.from_dict(result.to_dict()) == result

    def test_from_dict_ignores_unknown_keys(self):
        result = JobResult.from_dict({"ok": True, "omega": 3, "future_field": 1})
        assert result.ok and result.omega == 3


class TestMetricsExport:
    def test_snapshot_structure(self):
        with make_service() as svc:
            svc.solve(JobSpec(target="CAroad"))
            svc.solve(JobSpec(target="CAroad"))
            snap = svc.metrics_snapshot()
            assert snap["counters"]["jobs_submitted"] == 2
            assert snap["counters"]["cache_hits"] == 1
            assert snap["result_cache"]["hits"] == 1
            assert snap["pool"]["mode"] == "inline"
            assert snap["histograms"]["job_wall_seconds"]["count"] == 2

    def test_prometheus_page(self):
        with make_service() as svc:
            svc.solve(JobSpec(target="CAroad"))
            page = svc.to_prometheus()
            assert "# TYPE lazymc_jobs_submitted counter" in page
            assert "lazymc_jobs_submitted 1" in page
            assert 'lazymc_job_wall_seconds_bucket{le="+Inf"} 1' in page
