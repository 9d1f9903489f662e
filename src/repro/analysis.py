"""Post-solve analysis: the record of a solve and its incumbent growth.

Turns an :class:`~repro.core.solver.MCResult` into plain data: where the
filter funnel's neighbourhoods and operations went, what the execution
engine did, and how the incumbent grew relative to work spent.
:func:`solve_record` is the one record of a solve, shared by ``solve
--json``, the service's :class:`~repro.service.jobs.JobResult` and its
wire replies.  Everything is plain data — no plotting dependencies.
"""

from __future__ import annotations

from .core.filtering import FilterFunnel
from .core.solver import MCResult
from .graph.csr import CSRGraph


def funnel_section(funnel: FilterFunnel | None, n_vertices: int) -> dict:
    """JSON form of a :class:`~repro.core.filtering.FilterFunnel`.

    The shared ``funnel`` section of ``solve --json`` records and service
    results: per-stage survivor counts, sub-solver routing, the work
    split, and the Table III per-mille normalization.  ``funnel=None``
    (a baseline algorithm, which has no funnel) yields the same shape
    with every count zero, so downstream tooling can rely on the keys.
    """
    f = funnel if funnel is not None else FilterFunnel()
    return {
        "considered": f.considered,
        "after_coreness": f.after_coreness,
        "after_filter1": f.after_filter1,
        "after_filter2": f.after_filter2,
        "after_filter3": f.after_filter3,
        "searched": f.searched,
        "searched_mc": f.searched_mc,
        "searched_kvc": f.searched_kvc,
        "work_filtering": f.work_filtering,
        "work_mc": f.work_mc,
        "work_kvc": f.work_kvc,
        "per_mille": f.per_mille(n_vertices),
    }


def engine_section(info: dict | None = None) -> dict:
    """JSON form of an execution-engine summary.

    The shared ``engine`` section of ``solve --json`` records and service
    results: which backend ran the parfors, with how many workers, the
    schedule totals (work units), incumbent publications, the measured
    wall time of real-parallel sections, and any recorded serial
    fallbacks.  ``info=None`` (an algorithm that never touched the engine
    layer) yields the same shape zeroed with backend ``"none"``, so
    downstream tooling can rely on the keys and types.
    """
    info = info or {}
    return {
        "backend": str(info.get("backend", "none")),
        "workers": int(info.get("workers", 0)),
        "makespan": float(info.get("makespan", 0.0)),
        "total_work": int(info.get("total_work", 0)),
        "tasks": int(info.get("tasks", 0)),
        "incumbent_publications": int(info.get("publications", 0)),
        "wall_parallel_seconds": float(info.get("wall_seconds", 0.0)),
        "fallbacks": [str(f) for f in info.get("fallbacks", [])],
    }


def incumbent_growth(result: MCResult) -> list[tuple[float, int]]:
    """(virtual time, incumbent size) steps, deduplicated and sorted.

    Virtual time is in work units (the scheduler's clock); the curve shows
    how quickly the search converged on ω — the paper's "as an incumbent
    clique of a large size is known sooner, the search completes faster".
    """
    steps: list[tuple[float, int]] = []
    best = 0
    for t, size in sorted(result.incumbent_history):
        if size > best:
            steps.append((t, size))
            best = size
    return steps


def solve_record(algo: str, graph: CSRGraph, result) -> dict:
    """The record of one solve: every :class:`~repro.service.jobs.JobResult`
    field a solver fills.

    ``result`` is an :class:`~repro.core.solver.MCResult` or a baseline's
    :class:`~repro.baselines.common.BaselineResult`.  A baseline has no
    Alg. 1 phases, funnel, engine or heuristics, so those keys hold zeros
    or empty containers of the same shape: downstream tooling can rely on
    every key.  The record is plain JSON data (``incumbent_growth`` steps
    are ``[work, size]`` lists), so it survives the wire unchanged.
    """
    lazy = isinstance(result, MCResult)
    return {
        "algo": algo,
        "n": graph.n,
        "m": graph.m,
        "omega": result.omega,
        "clique": [int(v) for v in result.clique],
        "wall_seconds": result.wall_seconds,
        "timed_out": result.timed_out,
        "exact": not result.timed_out,
        "work": result.counters.work,
        "counters": result.counters.as_dict(),
        "degeneracy": result.degeneracy if lazy else 0,
        "gap": result.gap if lazy else 0,
        "heuristic_degree": result.heuristic_degree_size if lazy else 0,
        "heuristic_coreness": result.heuristic_coreness_size if lazy else 0,
        "phases_seconds": dict(result.timers.seconds) if lazy else {},
        "phases_work": dict(result.timers.work) if lazy else {},
        "funnel": funnel_section(result.funnel if lazy else None, graph.n),
        "engine": engine_section(result.engine),
        "incumbent_growth":
            [[t, size] for t, size in incumbent_growth(result)] if lazy else [],
    }
