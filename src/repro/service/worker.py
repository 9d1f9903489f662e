"""The job body executed inside pool workers.

Module-level functions only (they must be picklable by reference for the
process-based pool).  A worker receives a fully resolved graph — the
service resolves targets in the front process so it can fingerprint for
the cache — runs the requested solver under its budgets, and returns a
plain dict; the service layer turns that into a
:class:`~repro.service.jobs.JobResult`.  ``lazymc solve`` runs the same
:func:`run_job` inline, so a CLI solve and a service job produce the same
record.

Degradation contract: every solver in this package already converts a
tripped :class:`~repro.instrument.WorkBudget` into a best-effort result
with ``timed_out=True`` (the incumbent found by the heuristic phases plus
whatever systematic search completed).  The worker maps that onto
``exact=False`` rather than an error — the serving analogue of the paper's
heuristic-then-systematic structure, where a partial answer is always
available the moment the budget trips.

Fault tolerance: a :class:`JobEnv` (shipped per attempt by the supervised
pool) arms the :mod:`repro.faults` plan at the three hook sites and gives
the solve its checkpoint file.  A ``lazymc`` job with a checkpoint path
snapshots systematic-search progress there and, on a retried attempt,
resumes from whatever the previous attempt managed to write — so a crash
costs one checkpoint interval, not the whole search.  Injected faults and
interrupts (``KeyboardInterrupt``/``SystemExit``) deliberately *escape*
``run_job``: the former so the supervisor sees a retryable transport
failure, the latter because an interrupt must stop the program, not be
recorded as a job failure.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

from ..checkpoint import (Checkpointer, discard_checkpoint, load_checkpoint,
                          save_checkpoint)
from ..core import LazyMCConfig, lazymc
from ..errors import InjectedFault
from ..faults import FaultPlan
from ..graph.csr import CSRGraph


@dataclass(frozen=True)
class JobEnv:
    """Per-attempt execution environment shipped to the worker.

    ``fault_plan`` is already salted for this ``(job, attempt)``;
    ``checkpoint_path`` is stable across a job's attempts (that is what
    makes resume work); ``attempt`` is 0 for the first run.

    ``trace_path`` arms per-job search-tree tracing (:mod:`repro.trace`,
    ``lazymc`` only): the event stream is written atomically to this
    path when the solve finishes or fails, and, when the job also has a
    ``checkpoint_path``, on every checkpoint — so a killed attempt still
    leaves a valid (``complete: false``) trace on disk.  ``trace_sample``
    is the recorder's deterministic sampling stride over per-neighborhood
    events.
    """

    fault_plan: FaultPlan | None = None
    checkpoint_path: str | None = None
    checkpoint_interval_work: int = 0
    attempt: int = 0
    trace_path: str | None = None
    trace_sample: int = 1


def solve_graph(graph: CSRGraph, algo: str = "lazymc",
                config: LazyMCConfig | None = None,
                env: JobEnv | None = None) -> dict:
    """Run ``algo`` on ``graph`` and return its record.

    The record is :func:`repro.analysis.solve_record` (the same keys for
    every algorithm, zeroed where a baseline has no equivalent) plus
    ``resumed``, set when a checkpointed attempt continued a previous
    one, and ``trace_path``/``trace_summary`` on a traced run.
    ``config`` (default: ``LazyMCConfig()``) is the whole solver
    configuration for ``lazymc``; the baselines read only its budgets,
    and ``pmc`` also its ``threads``, ``engine`` and ``processes``.
    Checkpoint/resume, ``solve``-site faults and tracing are wired for
    ``lazymc`` only — the baselines manage their own budgets and
    solvers.  Inside a daemonic pool worker the process engine cannot
    spawn children and records a serial fallback instead of failing.
    """
    from ..analysis import solve_record

    config = config if config is not None else LazyMCConfig()
    resumed = False
    tracer = None
    if algo == "lazymc":
        checkpointer = None
        resume = None
        fault_hook = None
        if env is not None and env.trace_path:
            from ..trace import TraceRecorder

            tracer = TraceRecorder(sample_every=env.trace_sample)
            tracer.set_meta(algo=algo, n=graph.n, m=graph.m,
                            threads=config.threads, attempt=env.attempt)
        if env is not None:
            if env.checkpoint_path:
                resume = load_checkpoint(env.checkpoint_path)
                resumed = resume is not None
                sink = _sink_to(env.checkpoint_path)
                if tracer is not None:
                    # Crash survival: the trace on disk is always valid
                    # and at most one checkpoint interval stale.
                    sink = _flushing_sink(sink, tracer, env.trace_path)
                checkpointer = Checkpointer(
                    sink, interval_work=env.checkpoint_interval_work)
            if env.fault_plan is not None and env.fault_plan.has_site("solve"):
                fault_hook = env.fault_plan.on_budget_tick
        try:
            result = lazymc(graph, config, checkpointer=checkpointer,
                            resume=resume, fault_hook=fault_hook,
                            tracer=tracer)
        finally:
            if tracer is not None:
                # Written even when an injected fault escapes: a crashed
                # attempt leaves a valid, complete=false stream behind.
                with contextlib.suppress(OSError):
                    tracer.write(env.trace_path)
    else:
        from ..baselines import domega, mcbrb, pmc

        budgets = {"max_work": config.max_work,
                   "max_seconds": config.max_seconds}
        if algo == "pmc":
            result = pmc(graph, threads=config.threads, engine=config.engine,
                         processes=config.processes, **budgets)
        elif algo in ("domega-ls", "domega-bs"):
            result = domega(graph, algo.split("-", 1)[1], **budgets)
        elif algo == "mcbrb":
            result = mcbrb(graph, **budgets)
        else:
            raise ValueError(f"unknown algo {algo!r}")
    record = solve_record(algo, graph, result)
    record["resumed"] = resumed
    if tracer is not None:
        from ..trace import summarize_events

        record["trace_path"] = env.trace_path
        record["trace_summary"] = summarize_events(tracer.all_events())
    return record


def _sink_to(path: str):
    """Module-level sink factory (closures stay inside the worker, so the
    only thing crossing the process boundary is the path string)."""
    def sink(checkpoint):
        save_checkpoint(checkpoint, path)
    return sink


def _flushing_sink(inner, tracer, trace_path: str):
    """Chain a trace flush behind a checkpoint sink.

    The checkpoint write happens first so the durable pair (checkpoint,
    trace) on disk is never *ahead* of the trace stream; the flush is
    atomic (temp + rename) so a crash mid-flush leaves the previous
    valid stream.
    """
    def sink(checkpoint):
        inner(checkpoint)
        with contextlib.suppress(OSError):
            tracer.write(trace_path)
    return sink


def run_job(graph: CSRGraph, algo: str, config: LazyMCConfig,
            env: JobEnv | None = None) -> dict:
    """Pool entry point: :func:`solve_graph` with failures as records.

    Ordinary exceptions never cross the process boundary as exceptions —
    a crashing job must not be distinguishable from a failing one by
    transport effects, and the service must stay up either way.  Three
    classes deliberately escape: :class:`~repro.errors.InjectedFault`
    (the supervisor must see it as a retryable transport failure),
    ``KeyboardInterrupt`` and ``SystemExit`` (an interrupt must stop the
    program, not be recorded as a job failure).
    """
    plan = env.fault_plan if env is not None else None
    try:
        if plan is not None:
            plan.on_worker_entry()
        record = solve_graph(graph, algo, config, env)
        if plan is not None and plan.on_proto():
            raise InjectedFault("injected drop: result lost in transport")
        record["ok"] = True
        record["attempts"] = env.attempt + 1 if env is not None else 1
        if env is not None and env.checkpoint_path:
            # The job is done; its checkpoint must not leak into an
            # unrelated future retry.
            discard_checkpoint(env.checkpoint_path)
        return record
    except InjectedFault:
        raise
    except Exception as exc:
        return {"ok": False, "error_type": type(exc).__name__,
                "error": str(exc),
                "attempts": env.attempt + 1 if env is not None else 1}
