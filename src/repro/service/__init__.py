"""Long-running clique-query service: batching, caching, degradation.

The library's other entry points (CLI ``solve``, the bench harness) are
one-shot: every request pays full graph load plus solve cost.  This package
is the serving layer the ROADMAP's production north star asks for, built on
the paper's own principle — manage *work*, not just wall time:

* :class:`CliqueService` — submit/await job API with a multiprocessing
  worker pool, per-job :class:`~repro.instrument.WorkBudget` limits,
  cooperative cancellation of queued jobs, and a bounded admission queue;
* :class:`~repro.service.cache.ResultCache` — LRU result cache keyed by the
  graph's label-exact content hash crossed with the solver config, so
  repeated queries are free;
* **graceful degradation** — a job that exhausts its budget returns the
  best incumbent with ``exact=False`` instead of an error, mirroring the
  paper's heuristic-then-systematic structure;
* :class:`~repro.service.server.CliqueServer` + JSON-lines protocol — a
  local socket front end (``lazymc serve`` / ``lazymc query``) with
  JSON and Prometheus-style metrics export;
* **fault tolerance** (``supervise=True``) —
  :class:`~repro.service.supervisor.SupervisedPool` replaces crashed
  workers, kills and retries hung jobs under a deadline watchdog, backs
  retries off exponentially behind a per-algorithm circuit breaker, and
  resumes retried ``lazymc`` searches from checkpoints
  (:mod:`repro.checkpoint`); every failure path is testable on demand via
  the seeded fault-injection plane in :mod:`repro.faults`.  See
  ``docs/robustness.md``.

Quickstart::

    from repro.service import CliqueService, JobSpec

    svc = CliqueService()
    result = svc.solve(JobSpec(target="CAroad"))
    assert result.exact and result.omega == 4
    svc.shutdown()
"""

from .cache import ResultCache
from .jobs import JobHandle, JobResult, JobSpec, JobState
from .protocol import ServiceClient, decode_line, encode_message
from .server import CliqueServer, handle_request
from .service import CliqueService, ServiceConfig
from .supervisor import SupervisedPool
from .worker import JobEnv

__all__ = [
    "CliqueService",
    "ServiceConfig",
    "CliqueServer",
    "ServiceClient",
    "JobSpec",
    "JobResult",
    "JobHandle",
    "JobState",
    "JobEnv",
    "ResultCache",
    "SupervisedPool",
    "handle_request",
    "encode_message",
    "decode_line",
]
