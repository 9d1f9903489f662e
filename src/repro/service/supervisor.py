"""Supervised worker pool: crash recovery, deadlines, retry, circuit breaking.

The service's one worker pool.  A bare ``ProcessPoolExecutor`` has no
answer to a dead or wedged worker: a killed child poisons it for every
later job (``BrokenProcessPool``), and a hung solve holds its slot
forever.  :class:`SupervisedPool` wraps it behind ``submit`` ->
``Future``, ``pending`` and ``shutdown`` and adds the recovery ladder the
distributed-MC literature prescribes for irregular search trees:

* **crash detection** — a ``BrokenProcessPool`` retires the poisoned
  executor and lazily builds a fresh one (counted as ``worker_restarts``);
  the jobs that were in flight are retried, not lost;
* **deadline watchdog** — a background thread kills the worker processes
  of an executor whose jobs have overrun ``job_deadline`` (counted as
  ``job_timeouts``); the kill surfaces as a crash and flows through the
  same retry path;
* **retry with exponential backoff** — failed attempts are relaunched
  (counted as ``job_retries``), waiting ``backoff_base * 2**(attempt-1)``
  (capped) between attempts so a struggling machine is not stampeded.
  The job's own exceptions are budgeted by ``max_retries``; worker deaths
  by the larger ``crash_retries`` (default ``max(2*max_retries, 8)``),
  because a broken executor also fails innocent co-runners;
* **per-label circuit breaker** — ``circuit_threshold`` consecutive
  *permanent* failures under one label (the service labels jobs by
  algorithm) open the circuit for ``circuit_cooldown`` seconds, during
  which submissions fail fast with
  :class:`~repro.errors.CircuitOpenError` (counted as ``circuit_opens``).

With ``max_retries=0``, ``crash_retries=0`` and no circuit threshold the
ladder reduces to crash isolation alone: a failed job fails with
:class:`~repro.errors.WorkerCrashError` on its first attempt, and a dead
worker's executor is still replaced for the jobs that come after it —
the service's unsupervised mode.

Retries compose with checkpoint/resume: the service's ``env_factory``
gives every attempt the same checkpoint path, so attempt N+1 resumes from
the last snapshot attempt N shipped — a crash costs one checkpoint
interval, not the whole search.

The deadline kill is deliberately coarse: ``ProcessPoolExecutor`` does
not expose which process runs which work item, so the watchdog terminates
*all* of the executor's workers and lets every in-flight job fail over to
its checkpointed retry.  Precise per-worker kills would need a
process-per-job pool; with cheap resume, the coarse kill costs little and
keeps the executor machinery standard.

For the same reason, submission is throttled: at most ``workers`` jobs
are handed to the executor at a time, the rest queue on the supervisor's
side.  A ``BrokenProcessPool`` fails *everything* submitted to the
executor — throttling keeps that blast radius at O(workers) attempts per
crash instead of the whole backlog, and makes the deadline clock start at
(approximate) run start rather than enqueue time.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable

from ..errors import CircuitOpenError, WorkerCrashError
from ..instrument import MetricsRegistry
from ..parallel.engine import start_process_pool


class _Job:
    """Supervisor-side record of one submitted job across its attempts."""

    __slots__ = ("job_id", "fn", "args", "label", "env_factory", "outer",
                 "attempt", "failures", "crashes", "inner", "executor",
                 "started_at", "retry_at", "killed")

    def __init__(self, job_id: int, fn: Callable, args: tuple,
                 label: str | None, env_factory):
        self.job_id = job_id
        self.fn = fn
        self.args = args
        self.label = label
        self.env_factory = env_factory
        self.outer: Future = Future()
        self.attempt = 0
        self.failures = 0  # the job's own exceptions
        self.crashes = 0   # worker deaths (possibly collateral)
        self.inner: Future | None = None
        self.executor: ProcessPoolExecutor | None = None
        self.started_at = 0.0
        self.retry_at: float | None = None
        self.killed = False


class SupervisedPool:
    """Crash-surviving, deadline-enforcing, retrying worker pool.

    ``workers=0`` runs supervised-inline: jobs execute synchronously on
    the submitting thread with the same retry and circuit-breaker
    semantics (no deadline kill — nothing can interrupt the calling
    thread — and no backoff sleeps, keeping embedded/test use
    deterministic and fast).  With ``workers >= 1`` the executor is built
    lazily under the first usable multiprocessing start method; when none
    works the pool serves inline and ``mode`` says so.
    ``circuit_threshold=None`` turns the circuit breaker off.

    ``submit(fn, *args, label=..., env_factory=...)``: ``label`` scopes
    the circuit breaker; ``env_factory(attempt)``, when given, produces
    one extra trailing argument per attempt — the service uses it to hand
    each attempt its salted fault plan and its (stable) checkpoint path.
    """

    def __init__(self, workers: int = 0, *,
                 metrics: MetricsRegistry | None = None,
                 max_retries: int = 2,
                 crash_retries: int | None = None,
                 job_deadline: float | None = None,
                 backoff_base: float = 0.05,
                 backoff_cap: float = 2.0,
                 circuit_threshold: int | None = 5,
                 circuit_cooldown: float = 30.0,
                 watchdog_interval: float = 0.05):
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if job_deadline is not None and job_deadline <= 0:
            raise ValueError("job_deadline must be positive")
        if circuit_threshold is not None and circuit_threshold < 1:
            raise ValueError("circuit_threshold must be >= 1")
        self.workers = max(0, int(workers))
        self.mode = "inline" if self.workers == 0 else "process"
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.max_retries = int(max_retries)
        # Worker deaths get their own, larger budget: a BrokenProcessPool
        # hits every job in flight on the executor, so a job can be an
        # innocent bystander of its co-runners' crashes — charging those
        # against max_retries would lose well-behaved jobs under heavy
        # crash load (same reasoning as Dask's allowed-failures and
        # Celery's reject-on-worker-lost: worker death != task failure).
        self.crash_retries = int(crash_retries) if crash_retries is not None \
            else max(2 * self.max_retries, 8)
        self.job_deadline = job_deadline
        self.backoff_base = float(backoff_base)
        self.backoff_cap = float(backoff_cap)
        self.circuit_threshold = circuit_threshold
        self.circuit_cooldown = float(circuit_cooldown)
        self.watchdog_interval = float(watchdog_interval)

        self._lock = threading.RLock()
        self._executor: ProcessPoolExecutor | None = None
        self._jobs: dict[int, _Job] = {}
        self._ready: deque[_Job] = deque()
        self._inflight: dict[Future, _Job] = {}
        self._failures: dict[str | None, int] = {}
        self._open_until: dict[str | None, float] = {}
        self._next_id = 0
        self._closed = False
        self._stop = threading.Event()
        self._watchdog: threading.Thread | None = None

    # -- submission ---------------------------------------------------------------

    def submit(self, fn: Callable, *args, label: str | None = None,
               env_factory=None) -> Future:
        """Schedule ``fn(*args)`` under supervision; resolves to its result.

        The returned future fails with :class:`CircuitOpenError` when the
        label's circuit is open, or :class:`WorkerCrashError` once every
        attempt is exhausted; transient crashes, hangs, and injected
        faults in between are invisible to the caller.
        """
        if self._closed:
            raise RuntimeError("pool is shut down")
        now = time.monotonic()
        with self._lock:
            open_until = self._open_until.get(label, 0.0)
            if now < open_until:
                self.metrics.inc("jobs_rejected_circuit")
                outer: Future = Future()
                outer.set_exception(CircuitOpenError(
                    f"circuit for {label!r} open for another "
                    f"{open_until - now:.1f}s"))
                return outer
            self._next_id += 1
            job = _Job(self._next_id, fn, args, label, env_factory)
            self._jobs[job.job_id] = job
        if self.mode == "inline":
            self._run_inline(job)
        else:
            self._ensure_watchdog()
            with self._lock:
                self._ready.append(job)
            self._pump()
        return job.outer

    def _attempt_args(self, job: _Job) -> tuple:
        if job.env_factory is None:
            return job.args
        return job.args + (job.env_factory(job.attempt),)

    # -- inline mode --------------------------------------------------------------

    def _run_inline(self, job: _Job) -> None:
        while True:
            try:
                result = job.fn(*self._attempt_args(job))
            except (KeyboardInterrupt, SystemExit):
                self._finalize(job, error=WorkerCrashError(
                    "interrupted", attempts=job.attempt + 1))
                raise
            except Exception as exc:
                if job.attempt < self.max_retries:
                    job.attempt += 1
                    self.metrics.inc("job_retries")
                    continue
                self._finalize(job, error=WorkerCrashError(
                    f"job failed after {job.attempt + 1} attempts: "
                    f"{type(exc).__name__}: {exc}", attempts=job.attempt + 1))
                return
            self._finalize(job, result=result)
            return

    # -- process mode -------------------------------------------------------------

    def _ensure_executor(self) -> ProcessPoolExecutor | None:
        with self._lock:
            if self._closed:
                return None
            if self._executor is None:
                started = start_process_pool(
                    lambda ctx: ProcessPoolExecutor(max_workers=self.workers,
                                                    mp_context=ctx))
                if started is None:
                    self.mode = "inline"
                    return None
                self._executor = started[0]
            return self._executor

    def _ensure_watchdog(self) -> None:
        with self._lock:
            if self._watchdog is None or not self._watchdog.is_alive():
                self._stop.clear()
                self._watchdog = threading.Thread(
                    target=self._watch, name="lazymc-watchdog", daemon=True)
                self._watchdog.start()

    def _pump(self) -> None:
        """Launch ready jobs while worker slots are free.

        Admission throttling: at most ``workers`` inner futures exist at
        any time — the rest of the queue waits on the supervisor's side of
        the fence.  This bounds the blast radius of a crash (a dying
        worker poisons the executor for the in-flight jobs only, not for
        every queued one, so collateral retries stay O(workers) per
        crash) and makes ``started_at`` the *run* start, so the deadline
        watchdog measures execution time, not queue time.
        """
        while True:
            with self._lock:
                if not self._ready or self._closed or \
                        len(self._inflight) >= self.workers:
                    return
                job = self._ready.popleft()
            self._launch(job)

    def _launch(self, job: _Job) -> None:
        if self._closed or job.outer.cancelled():
            self._finalize(job, cancelled=True)
            return
        executor = self._ensure_executor()
        if executor is None:
            # Multiprocessing is gone entirely; degrade to supervised
            # inline rather than dropping the job.
            self._run_inline(job)
            return
        try:
            args = self._attempt_args(job)
            with self._lock:
                inner = executor.submit(job.fn, *args)
                job.inner = inner
                job.executor = executor
                job.started_at = time.monotonic()
                job.killed = False
                self._inflight[inner] = job
        except BrokenProcessPool as exc:
            # The executor died between jobs; retire it and retry through
            # the normal failure path.
            self._retire(executor)
            self._handle_failure(job, exc)
            return
        inner.add_done_callback(lambda f, j=job: self._job_done(j, f))

    def _job_done(self, job: _Job, inner: Future) -> None:
        with self._lock:
            self._inflight.pop(inner, None)
            if job.inner is not inner:  # stale callback from a killed attempt
                return
            job.inner = None
        try:
            if inner.cancelled():
                self._finalize(job, cancelled=True)
                return
            exc = inner.exception()
            if exc is None:
                self._finalize(job, result=inner.result())
                return
            if isinstance(exc, BrokenProcessPool):
                self._retire(job.executor)
            self._handle_failure(job, exc)
        finally:
            self._pump()  # a worker slot just freed up

    def _handle_failure(self, job: _Job, exc: BaseException) -> None:
        if isinstance(exc, BrokenProcessPool):
            job.crashes += 1
            allowed = job.crashes <= self.crash_retries
        else:
            job.failures += 1
            allowed = job.failures <= self.max_retries
        if allowed:
            job.attempt += 1
            self.metrics.inc("job_retries")
            delay = min(self.backoff_base * (2.0 ** (job.attempt - 1)),
                        self.backoff_cap)
            with self._lock:
                job.retry_at = time.monotonic() + delay
            return
        self._finalize(job, error=WorkerCrashError(
            f"job failed after {job.attempt + 1} attempts "
            f"({job.failures} job failures, {job.crashes} worker deaths): "
            f"{type(exc).__name__}: {exc}", attempts=job.attempt + 1))

    def _retire(self, executor: ProcessPoolExecutor | None) -> None:
        """Drop a poisoned executor; the next launch builds a fresh one."""
        if executor is None:
            return
        with self._lock:
            if self._executor is not executor:
                return
            self._executor = None
            self.metrics.inc("worker_restarts")
        executor.shutdown(wait=False, cancel_futures=True)

    def _kill_workers(self) -> None:
        """Terminate the current executor's worker processes.

        Every in-flight future then fails with ``BrokenProcessPool``,
        which the done-callbacks translate into retire + retry.
        """
        with self._lock:
            executor = self._executor
        if executor is None:
            return
        for process in list(getattr(executor, "_processes", {}).values()):
            try:
                process.terminate()
            except Exception:
                pass

    def _watch(self) -> None:
        while not self._stop.wait(self.watchdog_interval):
            now = time.monotonic()
            overdue = []
            due_retries = []
            with self._lock:
                for job in list(self._jobs.values()):
                    if job.inner is not None and not job.killed and \
                            self.job_deadline is not None and \
                            now - job.started_at > self.job_deadline:
                        job.killed = True
                        overdue.append(job)
                    elif job.inner is None and job.retry_at is not None and \
                            now >= job.retry_at:
                        job.retry_at = None
                        due_retries.append(job)
            if overdue:
                self.metrics.inc("job_timeouts", len(overdue))
                self._kill_workers()
            for job in due_retries:
                if job.outer.cancelled():
                    self._finalize(job, cancelled=True)
                else:
                    with self._lock:
                        self._ready.append(job)
            if due_retries:
                self._pump()

    # -- completion ---------------------------------------------------------------

    def _finalize(self, job: _Job, result=None, error: Exception | None = None,
                  cancelled: bool = False) -> None:
        with self._lock:
            self._jobs.pop(job.job_id, None)
            if error is None and not cancelled:
                self._failures[job.label] = 0
            elif error is not None and self.circuit_threshold is not None:
                count = self._failures.get(job.label, 0) + 1
                self._failures[job.label] = count
                if count >= self.circuit_threshold:
                    self._open_until[job.label] = \
                        time.monotonic() + self.circuit_cooldown
                    self._failures[job.label] = 0
                    self.metrics.inc("circuit_opens")
        try:
            if cancelled:
                job.outer.cancel()
            elif error is not None:
                job.outer.set_exception(error)
            else:
                job.outer.set_result(result)
        except Exception:
            # The outer future was cancelled by the caller mid-flight;
            # the result has nowhere to go, which is fine.
            pass

    # -- observation and lifecycle ------------------------------------------------

    @property
    def pending(self) -> int:
        """Jobs accepted but not yet in a terminal state (includes jobs
        waiting out a retry backoff)."""
        with self._lock:
            return len(self._jobs)

    def circuit_state(self, label: str | None = None) -> str:
        """``"open"`` or ``"closed"`` for ``label``'s circuit."""
        with self._lock:
            return "open" if time.monotonic() < \
                self._open_until.get(label, 0.0) else "closed"

    def shutdown(self, wait: bool = True) -> None:
        """Stop supervision and the executor; idempotent and terminal."""
        with self._lock:
            if self._closed:
                closed_already = True
            else:
                closed_already = False
                self._closed = True
            executor, self._executor = self._executor, None
            jobs = list(self._jobs.values())
            self._jobs.clear()
            self._ready.clear()
            self._inflight.clear()
        self._stop.set()
        watchdog = self._watchdog
        if watchdog is not None and watchdog.is_alive() and wait:
            watchdog.join(timeout=5.0)
        if executor is not None:
            executor.shutdown(wait=wait, cancel_futures=True)
        if not closed_already:
            for job in jobs:
                job.outer.cancel()
