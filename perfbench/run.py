#!/usr/bin/env python3
"""LazyMC benchmark: end-to-end and per-layer metrics of four workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload registry-dense --seed 1 \\
        --seconds 25 --trace 0

Load is one closed loop in this process: the workload's graphs are solved
one after another with ``repro.core.solver.lazymc`` (the next solve
starts when the previous one returns), in whole passes, until
``--seconds`` is spent.  The only concurrency is the process engine's own
two-worker pool on ``registry-dense-process``.  Each solve is one
operation, checked against an oracle: it fails if it raises, times out,
returns a non-clique, misses the oracle's omega, or reports an engine
fallback.  Garbage is collected before every timed solve and every timed
build, outside the timed region, so that no operation pays for the
garbage of the one before it.

``--trace 0`` prints the end-to-end metrics.  ``solve_s``, ``cpu_s`` and
``setup_s`` are seconds at a reference speed: each timed interval is
scaled by the cost of a host-speed probe timed alongside it (see
``speed.py``).  On a shared host (measured on a 2-vCPU VM) the same solve
can run twice as slow, in CPU time too, for seconds to tens of seconds at
a time, which no count of passes in a run averages out.  ``solve_s`` and
``cpu_s`` take each graph's median pass and sum over the workload's
graphs; ``setup_s`` is the median of several builds.

``--trace 1`` prints the per-layer metrics: the public ``MCResult``
fields of untraced passes, and the spans of traced passes run after them
(see ``tracing.py``).  Per-layer values are per-graph medians over
passes, summed over the workload's graphs.

Stdout ends with an environment stamp line and then the result line
``{"correct", "attempted", "failed", "metrics"}``.  A fuller record
(per-graph results, failures and the aggregated spans) is written to
``perfbench/out/``.  Without ``src/repro`` in the checkout there is
nothing to measure: the exit status is 2 and no result is printed.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

#: ``--trace 0`` builds the graphs at least this many times, and for at
#: least ``SETUP_SECONDS``; ``setup_s`` is the median build.  Registry-bio
#: and DIMACS builds take tens of milliseconds, so a fixed small count
#: would leave ``setup_s`` at the mercy of one scheduler hiccup.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0
#: A solve slower than this counts as a timed-out operation.
OP_TIMEOUT_S = 60.0
#: Untraced passes per run at least: the determinism check compares them,
#: and ``solve_s`` takes their median.
MIN_PASSES = 3

PHASES = ("heuristic_degree", "kcore", "sort", "prepopulate",
          "heuristic_coreness", "systematic")
FUNNEL_FIELDS = ("after_filter1", "after_filter2", "after_filter3",
                 "searched", "work_filtering", "work_kvc", "work_mc")
COUNTER_FIELDS = ("elements_scanned", "hash_lookups", "hash_inserts",
                  "neighborhoods_built_hash", "neighborhoods_built_sorted",
                  "branch_nodes", "kernel_reductions")


@dataclasses.dataclass
class Solve:
    """One operation: a single ``lazymc`` call on one graph."""

    graph: str
    start: float
    wall: float
    cpu: float
    result: object = None
    error: str | None = None
    digest: str | None = None
    layers: dict | None = None
    #: Wall and CPU seconds at the reference speed, set by ``rescale``.
    ref_wall: float = 0.0
    ref_cpu: float = 0.0


def cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return me.ru_utime + me.ru_stime + kids.ru_utime + kids.ru_stime


def reset_peak_rss() -> bool:
    """Restart this process's resident high-water mark from its current RSS.

    Linux resets ``VmHWM`` when 5 is written to ``clear_refs``.  Elsewhere
    the mark stays the lifetime peak; the return value says which.
    """
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
    except OSError:
        return False
    return True


def peak_rss_mb() -> float:
    """Peak resident set of this process since ``reset_peak_rss``."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0  # kB
    except OSError:
        pass
    return max_rss_mb(resource.RUSAGE_SELF)


def max_rss_mb(who: int) -> float:
    """Lifetime peak resident set of this process or its largest reaped child."""
    peak = resource.getrusage(who).ru_maxrss  # KiB; bytes on macOS
    return peak / 1024.0 / (1024.0 if sys.platform == "darwin" else 1.0)


def digest(result) -> str:
    """Fingerprint of what must repeat exactly: omega, counters, funnel."""
    record = {"omega": result.omega, "counters": result.counters.as_dict(),
              "funnel": dataclasses.asdict(result.funnel)}
    blob = json.dumps(record, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def failure(result, graph, oracle: int, wall: float) -> str | None:
    """Why a returned solve counts as failed, or None."""
    if result.timed_out or wall > OP_TIMEOUT_S:
        return f"timed out after {wall:.1f} s"
    if not result.verify(graph):
        return "returned vertices are not a clique of size omega"
    if result.omega != oracle:
        return f"omega {result.omega} != oracle {oracle}"
    if result.engine.get("fallbacks"):
        # The solve never ran the engine layer it was meant to measure.
        return f"engine fell back: {result.engine['fallbacks']}"
    return None


def run_passes(workload, graphs, oracles, seconds: float, min_passes: int,
               tracer=None, spans=None) -> list[list[Solve]]:
    """Solve every graph once per pass until ``seconds`` is spent."""
    import tracing
    from repro.core.solver import lazymc

    passes: list[list[Solve]] = []
    start = time.perf_counter()
    while True:
        one = []
        for (name, graph), oracle in zip(graphs, oracles):
            gc.collect()
            c0 = cpu_seconds()
            t0 = time.perf_counter()
            try:
                result = lazymc(graph, workload.config)
            except Exception as exc:  # one failed operation; the run goes on
                traceback.print_exc(file=sys.stderr)
                solve = Solve(name, t0, time.perf_counter() - t0,
                              cpu_seconds() - c0,
                              error=f"raised {type(exc).__name__}: {exc}")
            else:
                wall = time.perf_counter() - t0
                solve = Solve(name, t0, wall, cpu_seconds() - c0, result,
                              failure(result, graph, oracle, wall),
                              digest(result))
                # The per-task schedule is the bulk of a result and no
                # metric reads it; keeping it would make peak RSS grow
                # with the number of passes.
                result.schedule = None
            if tracer is not None:
                taken = tracer.take()
                solve.layers = tracing.layer_totals(taken)
                for key, (n, secs, inner) in taken.items():
                    total = spans.setdefault(key, [0, 0.0, 0.0])
                    total[0] += n
                    total[1] += secs
                    total[2] += inner
            one.append(solve)
        passes.append(one)
        spent = time.perf_counter() - start
        # Stop rather than start a pass that would overrun ``seconds``.
        if len(passes) >= min_passes and \
                spent * (len(passes) + 1) / len(passes) > seconds:
            return passes


def rescale(passes, sampler) -> None:
    """Put every solve's wall and CPU time on the reference speed."""
    for solves in passes:
        for s in solves:
            probe_wall, probe_cpu, scale = sampler.around(s.start,
                                                          s.start + s.wall)
            s.ref_wall = (s.wall - probe_wall) * scale
            s.ref_cpu = (s.cpu - probe_cpu) * scale


def per_graph_sum(passes, value, stat=statistics.median) -> float:
    """Sum over graphs of ``stat`` over passes of ``value(solve)``."""
    total = 0.0
    for solves in zip(*passes):
        values = [value(s) for s in solves if s.error is None]
        if values:
            total += stat(values)
    return total


def end_to_end(passes, setup_s: float, peak_mb: float) -> dict:
    return {
        "solve_s": per_graph_sum(passes, lambda s: s.ref_wall),
        "cpu_s": per_graph_sum(passes, lambda s: s.ref_cpu),
        "work_units": per_graph_sum(passes,
                                    lambda s: s.result.counters.work),
        "peak_rss_mb": peak_mb,
        "setup_s": setup_s,
    }


def per_layer(untraced, traced, probe_s: float) -> dict:
    import tracing

    def public(value):
        return per_graph_sum(untraced, value)

    m = {}
    for p in PHASES:
        m[f"phase.{p}.s"] = public(
            lambda s, p=p: s.result.timers.seconds.get(p, 0.0))
        m[f"phase.{p}.work"] = public(
            lambda s, p=p: s.result.timers.work.get(p, 0))
    for f in FUNNEL_FIELDS:
        m[f"funnel.{f}"] = public(lambda s, f=f: getattr(s.result.funnel, f))
    considered = public(lambda s: s.result.funnel.considered)
    m["funnel.yield"] = m["funnel.searched"] / considered if considered else 0.0
    for f in COUNTER_FIELDS:
        m[f"counters.{f}"] = public(
            lambda s, f=f: getattr(s.result.counters, f))
    exits = public(lambda s: s.result.counters.early_exit_false
                   + s.result.counters.early_exit_true)
    intersections = public(lambda s: s.result.counters.intersections)
    m["intersect.early_exit_rate"] = \
        exits / intersections if intersections else 0.0
    m["engine.map_s"] = public(lambda s: s.result.engine["wall_seconds"])
    m["engine.tasks"] = public(lambda s: s.result.engine["tasks"])
    m["engine.publications"] = public(
        lambda s: s.result.engine["publications"])
    m["engine.fallbacks"] = sum(
        len(s.result.engine["fallbacks"])
        for p in untraced + traced for s in p if s.result is not None)
    m["engine.children_peak_rss_mb"] = max_rss_mb(resource.RUSAGE_CHILDREN)
    m["trace.unattributed_s"] = public(
        lambda s: s.wall - s.result.timers.total_seconds())
    m["wall.solve_s"] = per_graph_sum(untraced, lambda s: s.wall, min)
    m["wall.cpu_s"] = per_graph_sum(untraced, lambda s: s.cpu, min)
    m["probe.us"] = probe_s * 1e6

    for key in tracing.layer_totals({}):
        m[key] = per_graph_sum(traced, lambda s, key=key: s.layers[key])
    # Pool start, pickling and merge: parfor self time spent outside map.
    m["engine.overhead_s"] = m["engine.parfor.self_s"] - per_graph_sum(
        traced, lambda s: s.result.engine["wall_seconds"])
    m["trace.overhead"] = (per_graph_sum(traced, lambda s: s.ref_wall)
                           / public(lambda s: s.ref_wall))
    return m


def determinism_errors(passes) -> list[str]:
    """Graphs whose counters or funnel differ between passes."""
    errors = []
    for solves in zip(*passes):
        seen = sorted({s.digest for s in solves if s.digest is not None})
        if len(seen) > 1:
            errors.append(f"{solves[0].graph}: counters or funnel differ "
                          f"between passes: {seen}")
    return errors


def source_digest() -> str:
    """Fingerprint of the measured program and of this benchmark."""
    h = hashlib.sha256()
    for path in sorted([*SRC.joinpath("repro").rglob("*.py"),
                        *BENCH_DIR.glob("*.py")]):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def cross_run_errors(workload, seed: int, passes) -> list[str]:
    """Compare per-graph digests with an earlier run of the same sources."""
    store = OUT_DIR / "digests.json"
    known = json.loads(store.read_text()) if store.is_file() else {}
    key = f"{source_digest()}/{workload.name}/{seed}"
    current = {s.graph: s.digest for s in passes[0]}
    earlier = known.get(key)
    if earlier is None:
        known[key] = current
        write_json(store, known)
        return []
    return [f"{g}: digest {current.get(g)} differs from {d}, recorded by "
            f"an earlier run of the same sources"
            for g, d in sorted(earlier.items()) if current.get(g) != d]


def environment(workload, seed: int, passes, rss_reset: bool) -> dict:
    """What a number needs beside it before it is compared with another."""
    import numpy
    import workloads

    methods = sorted({s.result.engine["start_method"]
                      for p in passes for s in p
                      if s.result is not None
                      and s.result.engine.get("start_method")})
    nproc = len(os.sched_getaffinity(0)) \
        if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "workload": workload.name,
        "seed": seed,
        "dimacs_synth_seed": seed,
        "dimacs_synth_draw_seed": workloads.DRAW_SEED,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mp_default_start_method": multiprocessing.get_all_start_methods()[0],
        "engine_start_methods": methods,
        "platform": platform.platform(),
        "engine": workload.config.engine,
        "processes": workload.config.processes,
        "kernel_backend": workload.config.kernel_backend,
        "nondeterministic": [] if workload.deterministic else ["work_units"],
        "peak_rss_since_setup": rss_reset,
    }


def graph_rows(graphs, oracles, passes) -> list[dict]:
    rows = []
    for (name, graph), oracle, solves in zip(graphs, oracles, zip(*passes)):
        rows.append({
            "graph": name, "n": graph.n, "m": graph.m, "oracle": oracle,
            "omega": [s.result.omega if s.result else None for s in solves],
            "wall_s": [s.wall for s in solves],
            "ref_wall_s": [s.ref_wall for s in solves],
            "cpu_s": [s.cpu for s in solves],
            "work": [s.result.counters.work if s.result else None
                     for s in solves],
            "digest": [s.digest for s in solves],
        })
    return rows


def write_json(path: Path, data) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(data, indent=1, sort_keys=True))
    os.replace(tmp, path)


def parse_args(argv):
    ap = argparse.ArgumentParser(
        description="LazyMC end-to-end and per-layer benchmark.")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="measuring time of one run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer metrics, from a traced run")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: nothing to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"perfbench: imported repro from {repro.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    import speed
    import tracing
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())

    builds: list[tuple[float, float]] = []  # (start, wall seconds)
    graphs = None
    traced: list[list[Solve]] = []
    spans: dict = {}
    with speed.SpeedSampler() as sampler:
        while not builds or not args.trace and (
                len(builds) < SETUP_REPEATS
                or sum(w for _, w in builds) < SETUP_SECONDS):
            graphs = None  # free the last build before timing the next
            gc.collect()
            t0 = time.perf_counter()
            graphs = workload.build(args.seed)
            builds.append((t0, time.perf_counter() - t0))
        oracles = [workload.oracle(name, graph) for name, graph in graphs]
        gc.collect()
        rss_reset = reset_peak_rss()

        start = time.perf_counter()
        passes = run_passes(workload, graphs, oracles,
                            args.seconds / (1 + args.trace), MIN_PASSES)
        peak_mb = peak_rss_mb()
        if args.trace:
            remaining = args.seconds - (time.perf_counter() - start)
            engine_only = workload.config.engine == "process"
            with tracing.LayerTracer(engine_only=engine_only) as tracer:
                traced = run_passes(workload, graphs, oracles, remaining, 1,
                                    tracer, spans)
    rescale(passes + traced, sampler)
    if args.trace:
        metrics = per_layer(passes, traced, statistics.median(sampler.cost))
        section = "per_layer"
    else:
        setups = []
        for t0, wall in builds:
            probe_wall, _, scale = sampler.around(t0, t0 + wall)
            setups.append((wall - probe_wall) * scale)
        metrics = end_to_end(passes, statistics.median(setups), peak_mb)
        section = "end_to_end"

    everything = passes + traced
    solves = [s for p in everything for s in p]
    failures = [f"{s.graph}: {s.error}" for s in solves if s.error]
    errors = []
    if workload.deterministic:
        errors = (determinism_errors(everything)
                  + cross_run_errors(workload, args.seed, passes))
    for line in failures + errors:
        print(f"perfbench: {line}", file=sys.stderr)

    units = {m["name"]: m["unit"] for m in declared[section]}
    if set(units) != set(metrics):
        print("perfbench: metrics disagree with BENCHMARK.json: "
              f"{sorted(set(units) ^ set(metrics))}", file=sys.stderr)
        return 1
    env = environment(workload, args.seed, everything, rss_reset)
    result = {
        "correct": not failures and not errors,
        "attempted": len(solves),
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    write_json(OUT_DIR / f"{workload.name}-seed{args.seed}"
                         f"-trace{args.trace}.json", {
        **result, "env": env, "failures": failures, "errors": errors,
        "passes": {"untraced": len(passes), "traced": len(traced)},
        "setup_wall_s": [w for _, w in builds],
        "probe_us": statistics.median(sampler.cost) * 1e6,
        "graphs": graph_rows(graphs, oracles, everything),
        "spans": [{"layer": layer, "parent": parent, "calls": n,
                   "seconds": secs, "self_seconds": secs - inner}
                  for (layer, parent), (n, secs, inner)
                  in sorted(spans.items())],
    })
    print(json.dumps({"env": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
