"""Job descriptions, results and handles for the query service.

A *job* is one solve request: a target graph plus a solver configuration.
:class:`JobSpec` is the immutable description (and the cache-key source),
:class:`JobResult` the uniform outcome record (exact, degraded, or failed —
never an exception across the service boundary), and :class:`JobHandle` the
caller's future-like view of a submitted job.
"""

from __future__ import annotations

import enum
import json
import threading
from collections.abc import Mapping
from dataclasses import dataclass, field, fields

from ..core.config import LazyMCConfig
from ..graph.csr import CSRGraph

#: Algorithms a job may request, mirroring ``lazymc solve --algo``.
ALGORITHMS = ("lazymc", "pmc", "domega-ls", "domega-bs", "mcbrb")

#: The :class:`~repro.core.config.LazyMCConfig` fields a job may override.
#: Exposing another field to the service means adding its name here.  The
#: first four may also be set service-wide (``ServiceConfig.defaults``).
SERVICE_KNOBS = ("max_work", "max_seconds", "engine", "processes",
                 "threads")
DEFAULT_KNOBS = SERVICE_KNOBS[:4]


def knob_overrides(config: Mapping, allowed: tuple[str, ...]) -> dict:
    """Validated copy of a knob override mapping; ``None`` means not given.

    Raises ``ValueError`` for a key outside ``allowed`` or a value
    :class:`~repro.core.config.LazyMCConfig` rejects.
    """
    if not isinstance(config, Mapping):
        raise ValueError("config must be a mapping of knob overrides")
    unknown = set(config) - set(allowed)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(sorted(unknown))}; "
                         f"known: {', '.join(allowed)}")
    given = {k: v for k, v in config.items() if v is not None}
    LazyMCConfig(**given)
    return given


@dataclass(frozen=True)
class JobSpec:
    """One solve request.

    Exactly one of ``target`` (dataset name or file path, resolved by
    :func:`repro.datasets.load_target`) or ``graph`` (an in-memory
    :class:`~repro.graph.csr.CSRGraph`) must be set.  ``config`` overrides
    :class:`~repro.core.config.LazyMCConfig` fields named in
    :data:`SERVICE_KNOBS` (e.g. ``{"max_work": 10**6, "engine": "seq"}``);
    a knob it leaves out (or sets to ``None``) takes the service default,
    then the ``LazyMCConfig`` default.

    ``trace_id`` requests per-job search-tree tracing (:mod:`repro.trace`):
    when the service has a trace directory configured, the job's event
    stream is written under this id.  It names an *observation*, not a
    different computation, so it is excluded from :meth:`config_key` —
    but a traced submission always runs (the cache read is bypassed) so
    a trace is actually produced.
    """

    target: str | None = None
    graph: CSRGraph | None = None
    algo: str = "lazymc"
    config: Mapping = field(default_factory=dict)
    use_cache: bool = True
    trace_id: str | None = None

    def __post_init__(self) -> None:
        if (self.target is None) == (self.graph is None):
            raise ValueError("exactly one of target/graph must be given")
        if self.algo not in ALGORITHMS:
            raise ValueError(f"unknown algo {self.algo!r}; "
                             f"known: {', '.join(ALGORITHMS)}")
        object.__setattr__(self, "config",
                           knob_overrides(self.config, SERVICE_KNOBS))
        if self.trace_id is not None:
            if not self.trace_id:
                raise ValueError("trace_id must be a non-empty string")
            # The id becomes a file name under the service's trace dir;
            # reject anything that could escape it.
            if any(c in self.trace_id for c in "/\\") or ".." in self.trace_id:
                raise ValueError("trace_id must not contain path separators")

    def solver_config(self) -> LazyMCConfig:
        """The :class:`~repro.core.config.LazyMCConfig` this job runs."""
        return LazyMCConfig(**self.config)

    def config_key(self) -> str:
        """Canonical string of every result-affecting knob except the graph.

        Crossed with the graph fingerprint to form the cache key: ``algo``
        plus every :data:`SERVICE_KNOBS` value of the resolved config.  The
        budgets are included because a degraded result is only reusable
        under the *same* budget; ``threads`` because it changes the
        simulated schedule (and hence counters) embedded in the result.
        """
        config = self.solver_config()
        return json.dumps({"algo": self.algo,
                           **{k: getattr(config, k) for k in SERVICE_KNOBS}},
                          sort_keys=True)


class JobState(enum.Enum):
    """Lifecycle of a submitted job."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    CANCELLED = "cancelled"


@dataclass
class JobResult:
    """Uniform outcome of one job; its fields are the solve record's schema.

    ``ok`` distinguishes "the solver ran" from "the request failed"
    (unloadable graph, full queue, worker crash).  A budget-bound run is
    *not* a failure: it has ``ok=True``, ``exact=False`` and carries the
    best incumbent found — the service's graceful-degradation contract.

    The solver fills the fields from ``algo`` to ``incumbent_growth``
    (:func:`repro.analysis.solve_record`, which ``lazymc solve --json``
    prints too): ``counters`` is the full :class:`~repro.instrument.Counters`
    dict, ``phases_seconds``/``phases_work`` the Alg. 1 phase account,
    ``funnel`` the per-stage filter funnel and ``engine`` the execution
    engine summary.  A baseline has no phases, funnel, engine or
    heuristics; those fields are zeroed or empty.

    ``attempts`` and ``resumed`` are the fault-tolerance trail: how many
    times the supervised pool ran the job, and whether the final attempt
    continued from a checkpoint a previous attempt left behind.
    ``cached`` and ``fingerprint`` are the service's.
    ``trace_id``/``trace_path``/``trace_summary`` are set only on results
    that actually produced a trace — cached copies of a result drop them,
    since a cache hit performed no traced run.
    """

    ok: bool
    algo: str = ""
    n: int = 0
    m: int = 0
    omega: int = 0
    clique: list[int] = field(default_factory=list)
    wall_seconds: float = 0.0
    timed_out: bool = False
    exact: bool = False
    work: int = 0
    counters: dict = field(default_factory=dict)
    degeneracy: int = 0
    gap: int = 0
    heuristic_degree: int = 0
    heuristic_coreness: int = 0
    phases_seconds: dict = field(default_factory=dict)
    phases_work: dict = field(default_factory=dict)
    funnel: dict | None = None
    engine: dict | None = None
    incumbent_growth: list = field(default_factory=list)
    attempts: int = 1
    resumed: bool = False
    cached: bool = False
    fingerprint: str = ""
    trace_id: str | None = None
    trace_path: str | None = None
    trace_summary: dict | None = None
    error_type: str | None = None
    error: str | None = None

    def to_dict(self) -> dict:
        """JSON-serializable record (the wire format of a solve response)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, record: dict) -> "JobResult":
        """Inverse of :meth:`to_dict`; ignores unknown keys."""
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in record.items() if k in known})

    @classmethod
    def failure(cls, exc: BaseException) -> "JobResult":
        """Structured failure record from an exception."""
        return cls(ok=False, error_type=type(exc).__name__, error=str(exc))


class JobHandle:
    """Caller-side view of a submitted job.

    Wraps a ``concurrent.futures.Future`` holding a :class:`JobResult`.
    ``result`` never raises for job-level failures (those are ``ok=False``
    records); it only raises ``TimeoutError`` when the caller's own wait
    deadline expires, and :class:`~concurrent.futures.CancelledError` if
    the job was cancelled while queued.
    """

    _counter = 0
    _counter_lock = threading.Lock()

    def __init__(self, spec: JobSpec, future, fingerprint: str = "",
                 canceller=None):
        with JobHandle._counter_lock:
            JobHandle._counter += 1
            self.job_id = JobHandle._counter
        self.spec = spec
        self.fingerprint = fingerprint
        self._future = future
        # Cancellation must reach the *worker* future when the visible
        # future is a wrapper published by the service's done-callback.
        self._canceller = canceller if canceller is not None else future.cancel

    def result(self, timeout: float | None = None) -> JobResult:
        """Block until the job finishes and return its :class:`JobResult`."""
        return self._future.result(timeout)

    def done(self) -> bool:
        """Whether the job has finished (any terminal state)."""
        return self._future.done()

    def cancel(self) -> bool:
        """Cooperatively cancel the job if it is still queued.

        Running jobs are not interrupted — their budgets bound them; this
        only withdraws work the pool has not started.  Returns whether the
        cancellation took effect.
        """
        return self._canceller()

    @property
    def state(self) -> JobState:
        """Current lifecycle state."""
        if self._future.cancelled():
            return JobState.CANCELLED
        if self._future.done():
            return JobState.DONE
        if self._future.running():
            return JobState.RUNNING
        return JobState.QUEUED
