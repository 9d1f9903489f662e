"""SupervisedPool robustness semantics: supervision, fallbacks, lifecycle."""

import time

import pytest

from repro.errors import CircuitOpenError, WorkerCrashError
from repro.instrument import MetricsRegistry
from repro.service import SupervisedPool


def _flaky(fail_times: list) -> object:
    """Succeeds only once ``fail_times`` is exhausted (mutated in place)."""
    if fail_times:
        raise RuntimeError(fail_times.pop())
    return "ok"


class TestSupervisedInline:
    def test_success_first_try(self):
        pool = SupervisedPool(0)
        try:
            assert pool.submit(lambda: 42).result(timeout=5) == 42
        finally:
            pool.shutdown()

    def test_retries_until_success(self):
        metrics = MetricsRegistry()
        pool = SupervisedPool(0, metrics=metrics, max_retries=3)
        try:
            fut = pool.submit(_flaky, ["boom", "boom"])
            assert fut.result(timeout=5) == "ok"
            assert metrics.counter("job_retries") == 2
        finally:
            pool.shutdown()

    def test_exhausted_retries_raise_worker_crash(self):
        pool = SupervisedPool(0, max_retries=1)
        try:
            fut = pool.submit(_flaky, ["a", "b", "c"])
            with pytest.raises(WorkerCrashError) as info:
                fut.result(timeout=5)
            assert info.value.attempts == 2
            assert "2 attempts" in str(info.value)
        finally:
            pool.shutdown()

    def test_env_factory_sees_attempt_numbers(self):
        seen = []

        def factory(attempt):
            seen.append(attempt)
            return attempt

        def fn(env):
            if env < 2:
                raise RuntimeError("not yet")
            return env

        pool = SupervisedPool(0, max_retries=3)
        try:
            assert pool.submit(fn, env_factory=factory).result(timeout=5) == 2
            assert seen == [0, 1, 2]
        finally:
            pool.shutdown()

    def test_keyboard_interrupt_propagates(self):
        pool = SupervisedPool(0, max_retries=5)

        def interrupt():
            raise KeyboardInterrupt

        try:
            with pytest.raises(KeyboardInterrupt):
                pool.submit(interrupt)
        finally:
            pool.shutdown()


class TestCircuitBreaker:
    def _exhaust(self, pool, label, times):
        for _ in range(times):
            fut = pool.submit(_flaky, ["x"], label=label)
            with pytest.raises(WorkerCrashError):
                fut.result(timeout=5)

    def test_opens_after_threshold_and_fails_fast(self):
        metrics = MetricsRegistry()
        pool = SupervisedPool(0, metrics=metrics, max_retries=0,
                              circuit_threshold=3, circuit_cooldown=60.0)
        try:
            self._exhaust(pool, "lazymc", 3)
            assert pool.circuit_state("lazymc") == "open"
            assert metrics.counter("circuit_opens") == 1
            fut = pool.submit(lambda: 1, label="lazymc")
            with pytest.raises(CircuitOpenError):
                fut.result(timeout=5)
            assert metrics.counter("jobs_rejected_circuit") == 1
        finally:
            pool.shutdown()

    def test_labels_are_independent(self):
        pool = SupervisedPool(0, max_retries=0, circuit_threshold=2,
                              circuit_cooldown=60.0)
        try:
            self._exhaust(pool, "lazymc", 2)
            assert pool.circuit_state("lazymc") == "open"
            assert pool.circuit_state("pmc") == "closed"
            assert pool.submit(lambda: 5, label="pmc").result(timeout=5) == 5
        finally:
            pool.shutdown()

    def test_success_resets_failure_streak(self):
        pool = SupervisedPool(0, max_retries=0, circuit_threshold=2,
                              circuit_cooldown=60.0)
        try:
            self._exhaust(pool, "lazymc", 1)
            assert pool.submit(lambda: 1, label="lazymc").result(timeout=5) == 1
            self._exhaust(pool, "lazymc", 1)
            # 1 failure, success, 1 failure: streak never reached 2.
            assert pool.circuit_state("lazymc") == "closed"
        finally:
            pool.shutdown()

    def test_circuit_closes_after_cooldown(self):
        pool = SupervisedPool(0, max_retries=0, circuit_threshold=1,
                              circuit_cooldown=0.05)
        try:
            self._exhaust(pool, "lazymc", 1)
            assert pool.circuit_state("lazymc") == "open"
            time.sleep(0.08)
            assert pool.circuit_state("lazymc") == "closed"
            assert pool.submit(lambda: 9, label="lazymc").result(timeout=5) == 9
        finally:
            pool.shutdown()


class TestSupervisedLifecycle:
    def test_validation(self):
        with pytest.raises(ValueError):
            SupervisedPool(0, max_retries=-1)
        with pytest.raises(ValueError):
            SupervisedPool(0, job_deadline=0)
        with pytest.raises(ValueError):
            SupervisedPool(0, circuit_threshold=0)

    def test_pending_settles_to_zero(self):
        pool = SupervisedPool(0)
        try:
            pool.submit(lambda: 1).result(timeout=5)
            assert pool.pending == 0
        finally:
            pool.shutdown()

    def test_shutdown_is_idempotent_and_terminal(self):
        pool = SupervisedPool(0)
        pool.shutdown()
        pool.shutdown(wait=False)
        with pytest.raises(RuntimeError):
            pool.submit(lambda: 1)


class TestSupervisedProcessMode:
    def test_process_pool_runs_and_retries(self):
        metrics = MetricsRegistry()
        pool = SupervisedPool(2, metrics=metrics, max_retries=2,
                              backoff_base=0.01)
        try:
            futs = [pool.submit(pow, 2, k) for k in range(6)]
            assert [f.result(timeout=60) for f in futs] == \
                [2 ** k for k in range(6)]
            assert pool.pending == 0
        finally:
            pool.shutdown()

    def test_crash_without_retries_fails_only_that_job(self):
        """No retries: a worker death fails its job as WorkerCrashError,
        and the next job runs on a rebuilt executor."""
        import os

        metrics = MetricsRegistry()
        pool = SupervisedPool(1, metrics=metrics, max_retries=0,
                              crash_retries=0, circuit_threshold=None)
        try:
            crashed = pool.submit(os._exit, 1)
            with pytest.raises(WorkerCrashError):
                crashed.result(timeout=60)
            assert pool.submit(pow, 2, 3).result(timeout=60) == 8
            assert metrics.counter("worker_restarts") == 1
            assert metrics.counter("job_retries") == 0
        finally:
            pool.shutdown()


class TestWorkerPoolFallbacks:
    """The pool without retries (the service's unsupervised mode) and its
    degradation when no start method works."""

    def test_inline_pending_visible_during_execution(self):
        pool = SupervisedPool(0, max_retries=0)
        observed = []

        def job():
            observed.append(pool.pending)
            return 1

        try:
            assert pool.submit(job).result(timeout=5) == 1
            # The job itself saw itself pending: depth reporting is
            # consistent with process mode, where in-flight jobs count.
            assert observed == [1]
            assert pool.pending == 0
        finally:
            pool.shutdown()

    def test_inline_captures_exceptions_into_future(self):
        pool = SupervisedPool(0, max_retries=0)

        def bad():
            raise ValueError("nope")

        try:
            fut = pool.submit(bad)
            with pytest.raises(WorkerCrashError, match="ValueError: nope"):
                fut.result(timeout=5)
        finally:
            pool.shutdown()

    def test_inline_reraises_keyboard_interrupt(self):
        pool = SupervisedPool(0, max_retries=0)

        def interrupt():
            raise KeyboardInterrupt

        try:
            with pytest.raises(KeyboardInterrupt):
                pool.submit(interrupt)
        finally:
            pool.shutdown()

    def test_shutdown_twice_safe_and_terminal(self):
        pool = SupervisedPool(0, max_retries=0)
        pool.shutdown()
        pool.shutdown(wait=False)
        with pytest.raises(RuntimeError):
            pool.submit(lambda: 1)

    def test_degrades_inline_when_all_start_methods_fail(self, monkeypatch):
        import multiprocessing as mp

        def broken(method):
            raise OSError(f"no {method} on this platform")

        monkeypatch.setattr(mp, "get_context", broken)
        pool = SupervisedPool(2, max_retries=0)
        try:
            assert pool.submit(lambda: "served").result(timeout=5) == "served"
            # The mode reaches the metrics snapshot and the serve banner:
            # it must name how jobs are actually served.
            assert pool.mode == "inline"
            assert pool.submit(lambda: "again").result(timeout=5) == "again"
        finally:
            pool.shutdown()

    def test_falls_back_to_later_start_method(self, monkeypatch):
        import multiprocessing as mp

        real = mp.get_context
        tried = []

        def picky(method):
            tried.append(method)
            if method == "fork":
                raise OSError("fork disabled")
            return real(method)

        monkeypatch.setattr(mp, "get_context", picky)
        pool = SupervisedPool(1, max_retries=0)
        try:
            assert pool.submit(pow, 3, 2).result(timeout=60) == 9
            assert tried == ["fork", "spawn"]
            assert pool.mode == "process"
        finally:
            pool.shutdown()
