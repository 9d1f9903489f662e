"""The query service: admission, cache, dispatch, degradation, metrics.

``CliqueService`` is transport-agnostic — it exposes ``submit``/``solve``
to in-process callers and is wrapped by :mod:`repro.service.server` for
socket clients.  One submission flows through four gates:

1. **resolve** — the target becomes a graph + its content fingerprint
   (registry graphs are memoized by :func:`repro.datasets.load`; files are
   re-read, so an edited file is never answered from its old content);
2. **cache** — fingerprint x config hit returns instantly, no worker;
3. **admission** — a bounded queue sheds load instead of growing latency;
4. **dispatch** — the worker pool runs the solve under its work/wall
   budgets; budget-bound jobs come back degraded (``exact=False``), never
   as errors.

All failure modes (bad target, full queue, worker crash) are structured
``JobResult`` records with ``ok=False`` — ``submit`` itself only raises
for caller bugs (invalid :class:`JobSpec`).
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import tempfile
import threading
import time
from concurrent.futures import Future
from collections.abc import Mapping
from dataclasses import dataclass, field

from ..errors import GraphLoadError, QueueFullError
from ..faults import FaultPlan
from ..graph.csr import CSRGraph
from ..graph.fingerprint import fingerprint
from ..instrument import LATENCY_BUCKETS, WORK_BUCKETS, MetricsRegistry
from .cache import ResultCache
from .jobs import DEFAULT_KNOBS, JobHandle, JobResult, JobSpec, knob_overrides
from .supervisor import SupervisedPool
from .worker import JobEnv, run_job


@dataclass(frozen=True)
class ServiceConfig:
    """Service-wide knobs.

    ``workers=0`` runs jobs inline on the submitting thread (deterministic;
    the default for embedding and tests), ``workers>=1`` uses that many
    processes.  ``defaults`` holds service-wide knob values
    (:data:`~repro.service.jobs.DEFAULT_KNOBS`: the two budgets, the
    execution engine and its process count) for jobs that leave them
    unset; a knob neither sets takes its
    :class:`~repro.core.config.LazyMCConfig` default (budgets unbounded)
    — production deployments should set ``defaults={"max_work": ...}``
    so no request can burn unbounded effort.  Defaults are merged under
    the job's own ``config`` before the cache key is formed: the
    effective budget and engine are part of a result's identity (a
    degraded answer is only reusable under the same budget).

    Jobs always run on a :class:`~repro.service.supervisor.SupervisedPool`.
    Unsupervised (the default), it only isolates crashes: a job that
    fails — including by a worker death — fails once as
    :class:`~repro.errors.WorkerCrashError`, and a dead worker's executor
    is rebuilt for later jobs.  ``supervise`` turns on the recovery
    ladder: jobs past ``job_deadline`` are killed and retried (up to
    ``max_retries`` times, with exponential backoff from
    ``retry_backoff``), ``circuit_threshold`` consecutive permanent
    failures per algorithm open a ``circuit_cooldown``-second circuit,
    and ``lazymc`` jobs checkpoint every ``checkpoint_interval_work`` work
    units so a retry resumes instead of restarting.  ``fault_plan``
    injects seeded faults (:mod:`repro.faults`) into every supervised job
    — for chaos tests and repro, not production.

    ``trace_dir`` enables per-job tracing: a job submitted with a
    ``trace_id`` writes its event stream to
    ``<trace_dir>/<trace_id>.trace.jsonl`` (flushed on every checkpoint,
    so it survives worker crashes).  ``trace_sample`` is the recorder's
    sampling stride for per-neighborhood events.  With ``trace_dir``
    unset, trace requests are ignored and jobs run exactly as before.
    """

    workers: int = 0
    cache_capacity: int = 128
    defaults: Mapping = field(default_factory=dict)
    max_queue_depth: int = 256
    supervise: bool = False
    max_retries: int = 2
    job_deadline: float | None = None
    retry_backoff: float = 0.05
    circuit_threshold: int = 5
    circuit_cooldown: float = 30.0
    checkpoint_interval_work: int = 50_000
    fault_plan: FaultPlan | None = None
    trace_dir: str | None = None
    trace_sample: int = 1

    def __post_init__(self) -> None:
        if self.workers < 0:
            raise ValueError("workers must be >= 0")
        object.__setattr__(self, "defaults",
                           knob_overrides(self.defaults, DEFAULT_KNOBS))
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.job_deadline is not None and self.job_deadline <= 0:
            raise ValueError("job_deadline must be positive")
        if self.checkpoint_interval_work < 0:
            raise ValueError("checkpoint_interval_work must be >= 0")
        if self.trace_sample < 1:
            raise ValueError("trace_sample must be >= 1")


class CliqueService:
    """Batched, cached, budgeted clique solving behind ``submit``."""

    def __init__(self, config: ServiceConfig | None = None):
        self.config = config if config is not None else ServiceConfig()
        self.metrics = MetricsRegistry()
        self._checkpoint_dir: str | None = None
        cfg = self.config
        if cfg.supervise:
            self.pool = SupervisedPool(
                cfg.workers, metrics=self.metrics,
                max_retries=cfg.max_retries, job_deadline=cfg.job_deadline,
                backoff_base=cfg.retry_backoff,
                circuit_threshold=cfg.circuit_threshold,
                circuit_cooldown=cfg.circuit_cooldown)
            self._checkpoint_dir = tempfile.mkdtemp(prefix="lazymc-ckpt-")
        else:
            self.pool = SupervisedPool(
                cfg.workers, metrics=self.metrics, max_retries=0,
                crash_retries=0, circuit_threshold=None)
        self.results = ResultCache(self.config.cache_capacity)
        self._job_counter = 0
        self._counter_lock = threading.Lock()

    # -- submission ---------------------------------------------------------------

    def submit(self, spec: JobSpec) -> JobHandle:
        """Admit one job; always returns a handle, never raises per-job.

        Cache hits and rejected/failed admissions return already-completed
        handles; everything else resolves when the worker finishes.
        """
        t0 = time.perf_counter()
        self.metrics.inc("jobs_submitted")
        try:
            graph, fp = self._resolve(spec)
        except GraphLoadError as exc:
            self.metrics.inc("jobs_failed")
            return self._completed(spec, JobResult.failure(exc))
        spec = dataclasses.replace(
            spec, config={**self.config.defaults, **spec.config})
        key = (fp, spec.config_key())
        trace_path = self._trace_path(spec)

        # A traced submission must actually run — serving a cached result
        # would produce no trace — so the cache read is bypassed (the
        # result is still *written* back, stripped of its trace fields).
        if spec.use_cache and trace_path is None:
            hit = self.results.get(key)
            if hit is not None:
                self.metrics.inc("cache_hits")
                self.metrics.observe("job_wall_seconds",
                                     time.perf_counter() - t0, LATENCY_BUCKETS)
                return self._completed(
                    spec, dataclasses.replace(hit, cached=True), fp)
            self.metrics.inc("cache_misses")

        if self.pool.pending >= self.config.max_queue_depth:
            self.metrics.inc("jobs_rejected")
            return self._completed(spec, JobResult.failure(QueueFullError(
                f"queue depth {self.pool.pending} >= "
                f"{self.config.max_queue_depth}")), fp)

        try:
            inner = self.pool.submit(
                run_job, graph, spec.algo, spec.solver_config(),
                label=spec.algo, env_factory=self._env_factory(trace_path))
        except RuntimeError as exc:  # pool already shut down
            self.metrics.inc("jobs_failed")
            return self._completed(spec, JobResult.failure(exc), fp)
        outer: Future = Future()
        inner.add_done_callback(
            lambda f: self._finish(f, outer, spec, key, fp, t0))
        self.metrics.set_gauge("queue_depth", self.pool.pending)
        return JobHandle(spec, outer, fp, canceller=inner.cancel)

    def solve(self, spec: JobSpec, timeout: float | None = None) -> JobResult:
        """Submit and wait: the one-call convenience API."""
        return self.submit(spec).result(timeout)

    # -- internals ----------------------------------------------------------------

    def _env_factory(self, trace_path: str | None = None):
        """Per-job factory of per-attempt :class:`JobEnv` values.

        The checkpoint path is stable across a job's attempts (resume
        depends on it); the fault plan is salted per ``(job, attempt)`` so
        probabilistic faults hit independent draws on every retry instead
        of deterministically re-firing.  The trace path is likewise
        stable: a retried attempt overwrites the crashed attempt's
        stream, so the id always names the authoritative (last) run.
        """
        with self._counter_lock:
            self._job_counter += 1
            token = self._job_counter
        path = os.path.join(self._checkpoint_dir, f"job-{token}.ckpt") \
            if self._checkpoint_dir else None
        plan = self.config.fault_plan if self.config.supervise else None
        interval = self.config.checkpoint_interval_work
        sample = self.config.trace_sample

        def factory(attempt: int) -> JobEnv:
            salted = plan.for_job(token, attempt) if plan else None
            return JobEnv(fault_plan=salted, checkpoint_path=path,
                          checkpoint_interval_work=interval, attempt=attempt,
                          trace_path=trace_path, trace_sample=sample)
        return factory

    def _trace_path(self, spec: JobSpec) -> str | None:
        """Where this job's trace goes, or ``None`` when not tracing."""
        if spec.trace_id is None or self.config.trace_dir is None:
            return None
        os.makedirs(self.config.trace_dir, exist_ok=True)
        return os.path.join(self.config.trace_dir,
                            f"{spec.trace_id}.trace.jsonl")

    def _resolve(self, spec: JobSpec) -> tuple[CSRGraph, str]:
        """Target/graph -> (graph, fingerprint of its labelled content)."""
        graph = spec.graph
        if graph is None:
            from ..datasets import load_target

            graph = load_target(spec.target)
        return graph, fingerprint(graph)

    def _finish(self, inner: Future, outer: Future, spec: JobSpec,
                key, fp: str, t0: float) -> None:
        """Done-callback on the worker future: account, cache, publish."""
        if inner.cancelled():
            self.metrics.inc("jobs_cancelled")
            self.metrics.set_gauge("queue_depth", self.pool.pending)
            outer.cancel()
            return
        exc = inner.exception()
        if exc is not None:
            result = JobResult.failure(exc)
        else:
            result = JobResult.from_dict(inner.result())
            result.fingerprint = fp
        if result.ok:
            self.metrics.inc("jobs_completed")
            if result.timed_out:
                self.metrics.inc("jobs_degraded")
            if result.resumed:
                self.metrics.inc("checkpoint_resumes")
            self.metrics.observe("job_work", result.work, WORK_BUCKETS)
            if result.trace_path:
                result.trace_id = spec.trace_id
            self._account_observability(result)
            if spec.use_cache:
                # Trace fields describe *this* run; a future cache hit
                # performed no traced run, so the cached copy drops them.
                self.results.put(key, dataclasses.replace(
                    result, trace_id=None, trace_path=None,
                    trace_summary=None))
        else:
            self.metrics.inc("jobs_failed")
        self.metrics.observe("job_wall_seconds",
                             time.perf_counter() - t0, LATENCY_BUCKETS)
        self.metrics.set_gauge("queue_depth", self.pool.pending)
        outer.set_result(result)

    def _account_observability(self, result: JobResult) -> None:
        """Fold a result's funnel and trace summary into the registry.

        Funnel stage survivors accumulate as counters (totals across
        jobs); the per-mille normalization of the *latest* job lands in
        gauges (a rate, not a total); recorded span work feeds per-span
        histograms.  Span names are sanitized for the Prometheus
        exposition (``:`` is not a valid metric-name character).
        """
        f = result.funnel
        if f:
            for stage in ("considered", "after_coreness", "after_filter1",
                          "after_filter2", "after_filter3", "searched",
                          "searched_mc", "searched_kvc"):
                count = int(f.get(stage, 0))
                if count:
                    self.metrics.inc(f"funnel_{stage}", count)
            for stage, value in (f.get("per_mille") or {}).items():
                self.metrics.set_gauge(f"funnel_per_mille_{stage}", value)
        summary = result.trace_summary
        if summary:
            self.metrics.inc("traces_captured")
            if summary.get("dropped"):
                self.metrics.inc("trace_events_dropped", summary["dropped"])
            for name, span in (summary.get("spans") or {}).items():
                safe = name.replace(":", "_")
                self.metrics.observe(f"trace_span_work_{safe}",
                                     span.get("work", 0), WORK_BUCKETS)

    def _completed(self, spec: JobSpec, result: JobResult,
                   fp: str = "") -> JobHandle:
        if not result.fingerprint:
            result.fingerprint = fp
        future: Future = Future()
        future.set_result(result)
        return JobHandle(spec, future, fp)

    # -- observation and lifecycle ------------------------------------------------

    def metrics_snapshot(self) -> dict:
        """Registry + cache + pool state as one JSON-friendly dict."""
        self._sync_gauges()
        snap = self.metrics.snapshot()
        snap["result_cache"] = self.results.info()
        snap["pool"] = {"mode": self.pool.mode, "workers": self.pool.workers,
                        "pending": self.pool.pending}
        return snap

    def to_prometheus(self) -> str:
        """Prometheus text page covering registry and cache metrics."""
        self._sync_gauges()
        return self.metrics.to_prometheus()

    def _sync_gauges(self) -> None:
        info = self.results.info()
        self.metrics.set_gauge("result_cache_size", info["size"])
        self.metrics.set_gauge("result_cache_hit_rate", info["hit_rate"])
        self.metrics.set_gauge("queue_depth", self.pool.pending)

    def shutdown(self) -> None:
        """Stop the worker pool; queued-but-unstarted jobs are cancelled."""
        self.pool.shutdown()
        if self._checkpoint_dir is not None:
            shutil.rmtree(self._checkpoint_dir, ignore_errors=True)
            self._checkpoint_dir = None

    def __enter__(self) -> "CliqueService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()
