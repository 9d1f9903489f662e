"""Exception hierarchy for the LazyMC reproduction.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
letting genuine programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class GraphFormatError(ReproError):
    """A graph file or edge list could not be parsed."""


class GraphConstructionError(ReproError):
    """Invalid arguments while building a graph (bad vertex ids, ...)."""


class BudgetExceeded(ReproError):
    """A solver exceeded its configured work or wall-clock budget.

    Mirrors the paper's 30-minute timeout ("T.O." entries in Table II).
    The partially computed incumbent clique, if any, is attached so the
    harness can report best-effort results.
    """

    def __init__(self, message: str = "work budget exceeded", incumbent=None):
        super().__init__(message)
        self.incumbent = incumbent


class SolverError(ReproError):
    """A solver reached an inconsistent internal state."""


class DatasetError(ReproError):
    """An unknown dataset name or unsatisfiable dataset parameters."""


class GraphLoadError(ReproError):
    """A solve target could not be resolved into a graph.

    Raised by :func:`repro.datasets.load_target` for unknown dataset names,
    missing files, and unparseable graph files.  Typed (rather than the
    CLI's historical ``SystemExit``) so the query service can turn a bad
    request into a structured error response instead of dying; the CLI
    catches it and re-raises as ``SystemExit``.
    """


class InjectedFault(ReproError):
    """A fault deliberately raised by :mod:`repro.faults`.

    Distinguishable from organic failures so the supervised pool can treat
    it as a transient, retryable condition (the whole point of injecting
    it) while tests can assert that a specific site fired.
    """


class TraceError(ReproError):
    """A trace stream is malformed, truncated, or schema-incompatible.

    Raised by :mod:`repro.trace.events` validation — never by the
    recorder itself, which must not be able to fail a solve.
    """


class ServiceError(ReproError):
    """Base class for query-service failures (queue, protocol, lifecycle)."""


class ProtocolError(ServiceError):
    """A malformed or unsupported request reached the service protocol."""


class QueueFullError(ServiceError):
    """The service job queue is at capacity; the request was rejected.

    Load shedding at admission is the service's outermost degradation
    layer: a bounded queue keeps latency bounded for accepted jobs.
    """


class WorkerCrashError(ServiceError):
    """A job failed permanently after exhausting its retry budget.

    Raised by the supervised pool once every attempt has crashed, hung
    past its deadline, or dropped its result; carries the attempt count so
    operators can distinguish "flaky" from "deterministically broken".
    """

    def __init__(self, message: str, attempts: int = 1):
        super().__init__(message)
        self.attempts = attempts


class CircuitOpenError(ServiceError):
    """The per-algorithm circuit breaker is open; the job was not run.

    After a run of consecutive permanent failures on one algorithm the
    supervised pool fails further jobs for it fast (no worker, no retry
    storm) until the cooldown elapses.
    """
