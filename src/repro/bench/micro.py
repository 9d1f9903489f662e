"""Kernel-level microbenchmarks: representations, early exits, backends.

Not a paper artifact, but the measurement base under Figs. 4/5: compares
three set representations (hopscotch hash, sorted array, builtin set),
quantifies the early-exit benefit as a function of how far the
intersection outcome is from the threshold θ, and races the sets vs bits
branch-and-bound kernels on dense random subgraphs — the committed
``BENCH_3.json`` baseline the ``perf`` CI job diffs against.

All results are reported in deterministic work counters (*scanned
elements* / *scanned words*) plus wall-clock fields.  Every wall field is
named so :mod:`repro.bench.regress` excludes it (``wall*``/``ns_*``):
only the deterministic counters are regression-checked.  Inputs are
generated with the stdlib PRNG — its sequence is stable across Python and
numpy versions, which is what makes the committed counters comparable in
CI.
"""

from __future__ import annotations

import random
import time

import numpy as np

from ..instrument import Counters
from ..intersect import (BitMatrix, HopscotchSet, intersect_size_gt_bool,
                         intersect_size_gt_val)
from ..intersect.early_exit import EarlyExitConfig, SortedArraySet
from ..mc.bitkernel import BitMCSubgraphSolver
from ..mc.branch_bound import MCSubgraphSolver
from .harness import BenchConfig
from .reporting import render_table


def _make_pair(universe: int, size_a: int, size_b: int, overlap: float, seed: int):
    """Two sorted arrays with a controlled intersection fraction."""
    rng = random.Random(seed)
    n_common = int(min(size_a, size_b) * overlap)
    pool = rng.sample(range(universe), size_a + size_b - n_common)
    common = pool[:n_common]
    a = np.sort(np.array(common + pool[n_common:size_a], dtype=np.int64))
    b = np.sort(np.array(common + pool[size_a:], dtype=np.int64))
    return a, b


def run_representations(sizes=(32, 128, 512), overlaps=(0.1, 0.5, 0.9),
                        universe: int = 4096, repeats: int = 50,
                        seed: int = 0) -> list[dict]:
    """Membership-probe cost of each representation during a full scan."""
    rows = []
    for size in sizes:
        for overlap in overlaps:
            a, b = _make_pair(universe, size, size, overlap, seed)
            reps = {
                "hopscotch": HopscotchSet.from_iterable(int(x) for x in b),
                "sorted": SortedArraySet(b),
                "pyset": set(int(x) for x in b),
            }
            row = {"size": size, "overlap": overlap}
            for name, rep in reps.items():
                t0 = time.perf_counter()
                hits = 0
                for _ in range(repeats):
                    for x in a:
                        if x in rep:
                            hits += 1
                dt = time.perf_counter() - t0
                row[f"ns_{name}"] = 1e9 * dt / (repeats * len(a))
            row["expected_hits"] = int(overlap * size)
            rows.append(row)
    return rows


def run_early_exit_benefit(n: int = 256, universe: int = 4096,
                           seed: int = 1) -> list[dict]:
    """Scanned elements vs θ-margin for the early-exit kernels.

    Sweeps the actual intersection size around θ and reports how many
    elements each kernel examined — the mechanism behind Fig. 5.
    """
    rows = []
    theta = n // 2
    for actual_frac in (0.1, 0.3, 0.45, 0.55, 0.7, 0.9):
        a, b = _make_pair(universe, n, n, actual_frac, seed)
        bset = HopscotchSet.from_iterable(int(x) for x in b)
        for kernel_name, runner in (
            ("size_gt_val", lambda c: intersect_size_gt_val(a, bset, theta, c)),
            ("size_gt_bool", lambda c: intersect_size_gt_bool(a, bset, theta, c)),
        ):
            on = Counters()
            runner(on)
            off = Counters()
            cfg = EarlyExitConfig(enabled=False)
            if kernel_name == "size_gt_val":
                intersect_size_gt_val(a, bset, theta, off, cfg)
            else:
                intersect_size_gt_bool(a, bset, theta, off, cfg)
            rows.append({
                "kernel": kernel_name,
                "actual_over_theta": actual_frac / 0.5,
                "scanned_with_exits": on.elements_scanned,
                "scanned_without": off.elements_scanned,
                "saving": 1 - on.elements_scanned / max(off.elements_scanned, 1),
            })
    return rows


#: Dense G(n, p) instances for the backend race: the filter-funnel regime
#: (small, dense) where BBMC encodings historically win.  Sized so the
#: sets backend takes seconds per instance — long enough for stable
#: ratios, short enough for CI.
_KERNEL_INSTANCES = ((112, 0.8), (128, 0.75), (128, 0.8))


def _random_dense_adj(n: int, p: float, seed: int) -> list[set]:
    """G(n, p) as set adjacency, stdlib PRNG (cross-version stable)."""
    rng = random.Random(seed)
    adj: list[set] = [set() for _ in range(n)]
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                adj[u].add(v)
                adj[v].add(u)
    return adj


def run_kernel_backends(instances=_KERNEL_INSTANCES, seed: int = 7) -> list[dict]:
    """Race the sets and bits branch-and-bound kernels on dense graphs.

    Each row carries both backends' deterministic work counters (the
    regression-checked payload) and wall-clock fields (``wall_*``,
    machine-dependent, excluded from regression).  ``omega_sets`` and
    ``omega_bits`` must always agree — both kernels are exact.
    """
    rows = []
    for n, p in instances:
        adj = _random_dense_adj(n, p, seed)

        sets_counters = Counters()
        t0 = time.perf_counter()
        sets_clique = MCSubgraphSolver(counters=sets_counters).solve(adj)
        wall_sets = time.perf_counter() - t0

        mat = BitMatrix.from_sets(adj)
        bits_counters = Counters()
        t0 = time.perf_counter()
        bits_clique = BitMCSubgraphSolver(counters=bits_counters).solve(mat)
        wall_bits = time.perf_counter() - t0

        rows.append({
            "name": f"bbmc-n{n}-p{p}",
            "n": n,
            "p": p,
            "omega_sets": len(sets_clique) if sets_clique else 0,
            "omega_bits": len(bits_clique) if bits_clique else 0,
            "work_sets": sets_counters.work,
            "work_bits": bits_counters.work,
            "elements_scanned_sets": sets_counters.elements_scanned,
            "words_scanned_bits": bits_counters.words_scanned,
            "branch_nodes_sets": sets_counters.branch_nodes,
            "branch_nodes_bits": bits_counters.branch_nodes,
            "wall_sets": wall_sets,
            "wall_bits": wall_bits,
            "wall_speedup_bits": wall_sets / wall_bits if wall_bits else 0.0,
        })
    return rows


# -- engine race (exported as the separate ``engines`` artifact) --------------
#
# Deliberately NOT part of :func:`run`: the committed ``BENCH_3.json``
# baseline predates it, and the perf CI job diffs micro's sections
# row-for-row — a new section would fail as ``new_rows``.  The
# :mod:`repro.bench.engines` artifact wraps it with its own committed
# baseline (``BENCH_5.json``).


def _race_context(payload):
    """Worker-context builder for the engine race (identity: the payload
    already is the plain picklable dict the tasks need)."""
    return payload


def _race_task(ctx, task, view, counters):
    """Needle-benchmark task body (module level: process-shippable).

    One task (the needle) immediately finds a clique of ``needle_size``;
    every other task either burns a fixed CPU loop or — once the needle's
    publication is visible at its start — prunes at entry.  How many
    tasks actually burn therefore measures incumbent-visibility latency
    directly: a sequential run burns every pre-needle task, workers that
    share the incumbent stop burning as soon as one of them hits the
    needle.  That is the work-deflation half of the Fig. 7 story, and on
    a small machine it is where real-parallel wall-clock wins come from.
    """
    if view.size >= ctx["needle_size"]:
        counters.elements_scanned += 1
        return "pruned", None
    if task == ctx["needle_index"]:
        counters.elements_scanned += 1
        view.offer(list(range(ctx["needle_size"])))
        return "needle", None
    x = 0
    for i in range(ctx["burn"]):  # real CPU time, not just a counter bump
        x += i & 7
    counters.elements_scanned += ctx["burn"]
    return "burned", None


def run_engine_race(n_tasks: int = 64, burn: int = 150_000,
                    needle_size: int = 8, processes: int = 2,
                    dataset: str = "WormNet") -> list[dict]:
    """Race the sequential and process engines on the same workloads.

    Two workloads: the synthetic *needle* parfor above, and a full
    ``lazymc`` solve of ``dataset``.  Sequential-row counters are
    deterministic (regression-checked); process rows carry the same
    quantities under an ``ndet_`` prefix because real-parallel
    publication timing is racy by nature (:mod:`repro.bench.regress`
    excludes them), plus measured ``wall_*`` fields.
    """
    from ..parallel import EngineBody, Incumbent, create_engine

    # The needle sits at the start of the second map chunk, so with >= 2
    # workers somebody reaches it immediately while worker 0 is still
    # burning its first chunk.
    needle_index = max(1, n_tasks // (processes * 4))
    ctx = {"burn": burn, "needle_index": needle_index,
           "needle_size": needle_size}
    body = EngineBody(
        inline=lambda task, view, counters: _race_task(ctx, task, view,
                                                       counters)[0],
        worker=_race_task)

    rows = []
    for engine_name in ("seq", "process"):
        eng = create_engine(engine_name, processes=processes)
        if engine_name == "process":
            eng.set_worker_context(_race_context, ctx)
        incumbent = Incumbent()
        t0 = time.perf_counter()
        results = eng.parfor(list(range(n_tasks)), body, incumbent)
        wall = time.perf_counter() - t0
        eng.close()
        outcomes = [r.value if isinstance(r.value, str) else r.value[0]
                    for r in results]
        row = {"name": "needle", "engine": engine_name,
               "tasks": n_tasks, "wall_parfor": wall}
        stats = {"burned": outcomes.count("burned"),
                 "pruned": outcomes.count("pruned"),
                 "work": eng.counters.work,
                 "publications": eng.publications}
        if engine_name == "seq":
            row.update(stats)
        else:
            row.update({f"ndet_{k}": v for k, v in stats.items()})
            row["processes"] = eng.processes
            row["fallback_count"] = len(eng.fallbacks)
            row["wall_map"] = getattr(eng, "wall_seconds", 0.0)
        rows.append(row)

    from .. import LazyMCConfig, lazymc
    from ..datasets import load

    graph = load(dataset)
    for engine_name in ("seq", "process"):
        cfg = LazyMCConfig(engine=engine_name, processes=processes)
        t0 = time.perf_counter()
        result = lazymc(graph, cfg)
        wall = time.perf_counter() - t0
        row = {"name": f"lazymc-{dataset}", "engine": engine_name,
               "omega": result.omega, "wall_solve": wall}
        if engine_name == "seq":
            row["work"] = result.counters.work
        else:
            row["ndet_work"] = result.counters.work
            row["processes"] = processes
            row["fallback_count"] = len(result.engine.get("fallbacks", []))
            row["wall_map"] = result.engine.get("wall_seconds", 0.0)
        rows.append(row)
    return rows


def run(config: BenchConfig | None = None) -> dict:
    """Execute the sweep and return structured rows."""
    return {
        "representations": run_representations(),
        "early_exit": run_early_exit_benefit(),
        "kernel_backends": run_kernel_backends(),
    }


def render(results: dict) -> str:
    """Render rows as the paper-style text table."""
    parts = []
    rows = results["representations"]
    parts.append(render_table(
        ["size", "overlap", "ns/probe hopscotch", "ns/probe sorted",
         "ns/probe pyset"],
        [[r["size"], f'{r["overlap"]:.1f}', r["ns_hopscotch"], r["ns_sorted"],
          r["ns_pyset"]] for r in rows],
        title="Micro — membership probe cost by representation", precision=0))
    rows = results["early_exit"]
    parts.append(render_table(
        ["kernel", "actual/theta", "scanned (exits on)", "scanned (off)",
         "saving"],
        [[r["kernel"], f'{r["actual_over_theta"]:.2f}', r["scanned_with_exits"],
          r["scanned_without"], f'{r["saving"]:.3f}'] for r in rows],
        title="Micro — early-exit scan savings vs theta margin"))
    rows = results.get("kernel_backends", [])
    if rows:
        parts.append(render_table(
            ["instance", "omega", "work sets", "work bits", "wall sets (s)",
             "wall bits (s)", "speedup"],
            [[r["name"], r["omega_bits"], r["work_sets"], r["work_bits"],
              f'{r["wall_sets"]:.3f}', f'{r["wall_bits"]:.3f}',
              f'{r["wall_speedup_bits"]:.1f}x'] for r in rows],
            title="Micro — branch-and-bound kernel backends (sets vs bits)"))
    return "\n\n".join(parts)


def main(config: BenchConfig | None = None) -> str:
    """Run and print; returns the rendered text."""
    out = render(run(config))
    print(out)
    return out
