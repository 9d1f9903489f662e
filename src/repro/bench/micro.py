"""Kernel-level microbenchmarks: representations, early exits, arm race.

Not a paper artifact, but the measurement base under Figs. 4/5/6:
compares three set representations (hopscotch hash, sorted array,
builtin set), quantifies the early-exit benefit as a function of how far
the intersection outcome is from the threshold θ, and races the three
sub-solver arms — k-VC, the bit kernel and the sets MC solver — on the
neighborhoods a default solve actually dispatches.  Together they are
the committed ``BENCH_3.json`` baseline the ``perf`` CI job diffs
against.

All results are reported in deterministic work counters (*scanned
elements* / *scanned words*) plus wall-clock fields.  Every wall field is
named so :mod:`repro.bench.regress` excludes it (``wall*``/``ns_*``):
only the deterministic counters are regression-checked.  The kernel
inputs are generated with the stdlib PRNG — its sequence is stable
across Python and numpy versions, which is what makes the committed
counters comparable in CI; the race's inputs are registry graphs and a
fixed G(n, p) draw.
"""

from __future__ import annotations

import random
import time

import numpy as np

from ..core import filtering
from ..core.config import LazyMCConfig
from ..core.solver import lazymc
from ..datasets import load
from ..graph import generators
from ..instrument import Counters
from ..intersect import (HopscotchSet, intersect_size_gt_bool,
                         intersect_size_gt_val)
from ..intersect.early_exit import EarlyExitConfig, SortedArraySet
from ..mc.bitkernel import BitMCSubgraphSolver
from ..mc.branch_bound import MCSubgraphSolver
from ..vc.clique_via_vc import max_clique_via_vc_masks
from ..vc.kernelization import mask_ids
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


# -- arm race on recorded traffic ----------------------------------------------

#: The race's inputs: two bio registry graphs and one G(120, 0.7) draw
#: (the generator seed of the p = 0.7 member of perfbench's dimacs-synth
#: workload, without that workload's relabelling), the one input where
#: the bit kernel has beaten k-VC.
ARM_RACE_INPUTS = ("HS-CX", "mouse", "gnp-n120-p0.7")
_GNP_SEED = 2036044446

#: The three sub-solver arms, each called as ``solve(masks, bound,
#: counters)`` and each taking the masks as ``NeighborSearch`` hands them
#: over (the sets arm pays for its sets).
_ARMS = (
    ("kvc", lambda masks, bound, c: max_clique_via_vc_masks(
        masks, lower_bound=bound, counters=c)),
    ("bits", lambda masks, bound, c: BitMCSubgraphSolver(
        counters=c).solve(masks, bound)),
    ("sets", lambda masks, bound, c: MCSubgraphSolver(
        counters=c).solve([set(mask_ids(m)) for m in masks], bound)),
)


def _race_graph(name: str):
    if name == "gnp-n120-p0.7":
        return generators.gnp_random(120, 0.7, seed=_GNP_SEED)
    return load(name)


def record_dispatched(graph):
    """Solve ``graph`` at the default config; return
    ``(neighborhoods, result)``.

    ``neighborhoods`` lists ``(masks, bound)`` for every neighborhood the
    solve handed to a sub-solver, in dispatch order.  They are recorded
    by wrapping :func:`repro.core.filtering._induced_masks`, the one
    extraction every arm reads, for this solve only: the solver itself
    has no hook.  The extraction's ``min_core`` is the incumbent size,
    so the sub-solver's bound is one less.
    """
    recorded: list[tuple[list[int], int]] = []
    extract = filtering._induced_masks

    def recording(lazy, candidates, min_core, counters):
        masks = extract(lazy, candidates, min_core, counters)
        recorded.append((masks, min_core - 1))
        return masks

    filtering._induced_masks = recording
    try:
        result = lazymc(graph, LazyMCConfig())
    finally:
        filtering._induced_masks = extract
    return recorded, result


def run_arm_race(inputs=ARM_RACE_INPUTS) -> list[dict]:
    """Race k-VC, the bit kernel and the sets MC arm on recorded traffic.

    Every neighborhood the default config dispatches on each input is
    solved again by all three arms with the same bound.  Rows bucket the
    neighborhoods by input, induced-density decile and size (k < 64 or
    k >= 64); per arm they carry the summed ``work_*`` and
    ``branch_nodes_*`` counters (regression-checked) and ``wall_*``
    seconds (machine-dependent).  Raises ``RuntimeError`` when the
    recorded count is not the solve's ``funnel.searched`` or when two
    arms disagree on a found clique's size: all three are exact.
    """
    rows: dict[tuple, dict] = {}
    for order, name in enumerate(inputs):
        dispatched, result = record_dispatched(_race_graph(name))
        if len(dispatched) != result.funnel.searched:
            raise RuntimeError(
                f"{name}: recorded {len(dispatched)} neighborhoods, "
                f"funnel.searched is {result.funnel.searched}")
        for masks, bound in dispatched:
            k = len(masks)
            density = (sum(m.bit_count() for m in masks) / (k * (k - 1))
                       if k > 1 else 1.0)
            decile = min(int(density * 10), 9)
            size = "k>=64" if k >= 64 else "k<64"
            row = rows.get((order, decile, size))
            if row is None:
                row = rows[(order, decile, size)] = {
                    "name": f"{name}/d{decile}/{size}", "input": name,
                    "density": f"{decile / 10:.1f}-{(decile + 1) / 10:.1f}",
                    "size": size, "count": 0}
                for arm, _ in _ARMS:
                    row.update({f"work_{arm}": 0, f"branch_nodes_{arm}": 0,
                                f"wall_{arm}": 0.0})
            row["count"] += 1
            found_sizes = {}
            for arm, solve in _ARMS:
                counters = Counters()
                t0 = time.perf_counter()
                found = solve(masks, bound, counters)
                row[f"wall_{arm}"] += time.perf_counter() - t0
                row[f"work_{arm}"] += counters.work
                row[f"branch_nodes_{arm}"] += counters.branch_nodes
                found_sizes[arm] = len(found) if found else 0
            if len(set(found_sizes.values())) != 1:
                raise RuntimeError(f"{name}: arms disagree on a neighborhood "
                                   f"of {k} vertices: {found_sizes}")
    return [rows[key] for key in sorted(rows)]


# -- engine race (exported as the separate ``engines`` artifact) --------------
#
# Deliberately NOT part of :func:`run`: the committed ``BENCH_3.json``
# baseline predates it, and the perf CI job diffs micro's sections
# row-for-row — a new section would fail as ``new_rows``.  The
# :mod:`repro.bench.engines` artifact wraps it with its own committed
# baseline (``BENCH_5.json``).


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
            eng.set_worker_context(ctx)
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
        "arm_race": run_arm_race(),
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
    rows = results["arm_race"]
    parts.append(render_table(
        ["input", "density", "size", "count", "wall kvc (s)", "wall bits (s)",
         "wall sets (s)", "work kvc", "work bits", "work sets"],
        [[r["input"], r["density"], r["size"], r["count"],
          f'{r["wall_kvc"]:.3f}', f'{r["wall_bits"]:.3f}',
          f'{r["wall_sets"]:.3f}', r["work_kvc"], r["work_bits"],
          r["work_sets"]] for r in rows],
        title="Micro — sub-solver arm race on recorded neighborhoods "
              "(k-VC vs bits vs sets)"))
    return "\n\n".join(parts)

