"""Figure 7: parallel scalability and the adverse impact on total work.

For thread counts 1..128 (simulated), per graph: the virtual makespan
(work-unit time), speedup over one thread, total work, and work inflation
relative to one thread, plus the four-phase breakdown.

Reproduction targets (§V-F): speedup grows with threads but sublinearly;
total work *increases* with threads because concurrently started tasks
see stale incumbents (the paper measures up to 139× work inflation on
warwiki against only 4.7× speedup; orkut is well-behaved at <= 1.82×
inflation).  The simulated scheduler reproduces the mechanism —
visibility-delayed incumbent publication — deterministically.

With ``BenchConfig(engine="process")`` the sweep runs on the real
multiprocessing engine instead (process counts from ``PROCESS_COUNTS``):
the virtual makespan/work columns are then *replayed* schedule accounting
over measured task costs, and the ``wall`` column is measured wall-clock
time of the parallel sections — the only column where real parallelism
(or its absence on a small machine) shows up directly.
"""

from __future__ import annotations

from .. import LazyMCConfig, lazymc
from ..datasets import load
from .harness import BenchConfig
from .reporting import render_table

THREAD_COUNTS = [1, 2, 4, 8, 16, 32, 64, 128]
#: Worker counts for the real-multiprocessing sweep: kept small because
#: every count spawns an actual pool.
PROCESS_COUNTS = [1, 2, 4]
HEADERS = ["graph", "engine", "threads", "makespan", "speedup", "work",
           "inflation", "wall", "pre%", "heur%", "syst%"]


def run(config: BenchConfig | None = None,
        thread_counts: list[int] | None = None) -> list[dict]:
    """Execute the sweep and return structured rows."""
    config = config or BenchConfig()
    engine = config.engine
    if thread_counts is None:
        thread_counts = PROCESS_COUNTS if engine == "process" \
            else THREAD_COUNTS
    rows = []
    for name in config.dataset_list():
        graph = load(name)
        base_makespan = None
        base_work = None
        for t in thread_counts:
            if engine == "process":
                cfg = LazyMCConfig(threads=1, engine="process", processes=t,
                                   max_seconds=config.timeout_seconds)
            else:
                cfg = LazyMCConfig(threads=t, engine=engine,
                                   max_seconds=config.timeout_seconds)
            result = lazymc(graph, cfg)
            makespan = result.schedule.makespan
            work = result.schedule.total_work
            if base_makespan is None:
                base_makespan = makespan or 1.0
                base_work = work or 1
            rows.append({
                "graph": name,
                "engine": engine,
                "threads": t,
                "makespan": makespan,
                "speedup": base_makespan / makespan if makespan else 0.0,
                "work": work,
                "inflation": work / base_work,
                "wall": result.engine.get("wall_seconds", 0.0),
                "omega": result.omega,
                "phase_work": dict(result.timers.work),
            })
    return rows


def _phase_fractions(phase_work: dict) -> tuple[float, float, float]:
    """Fold the six Alg. 1 phases into the paper's three Fig. 7 groups:
    preprocessing (k-core + sort + prepopulation), heuristics, systematic."""
    pre = sum(phase_work.get(k, 0) for k in ("kcore", "sort", "prepopulate"))
    heur = sum(phase_work.get(k, 0)
               for k in ("heuristic_degree", "heuristic_coreness"))
    syst = phase_work.get("systematic", 0)
    total = max(pre + heur + syst, 1)
    return pre / total, heur / total, syst / total


def render(rows: list[dict]) -> str:
    """The Fig. 7 report section: scaling table plus shape lines."""
    table = []
    for r in rows:
        pre, heur, syst = _phase_fractions(r["phase_work"])
        table.append([r["graph"], r["engine"], r["threads"], int(r["makespan"]),
                      r["speedup"], r["work"], r["inflation"], r["wall"],
                      100 * pre, 100 * heur, 100 * syst])
    best = max(rows, key=lambda r: r["speedup"])
    worst = max(rows, key=lambda r: r["inflation"])
    parallel = [r for r in rows if r["threads"] > 1]
    sublinear = [r for r in parallel if r["speedup"] < r["threads"]]
    widest = max(r["threads"] for r in rows)
    at_widest = [r for r in rows if r["threads"] == widest]
    inflated = [r for r in at_widest if r["inflation"] > 1]
    return "\n\n".join([
        render_table(HEADERS, table, precision=2,
                     title="Figure 7 — parallel scaling and work inflation"),
        "Makespan and work are in work units; pre%, heur% and syst% split "
        "the work into preprocessing, heuristics and systematic search.",
        f"Best speedup: {best['speedup']:.1f}x at {best['threads']} threads "
        f"on {best['graph']} (paper: best 22.8x on 128 threads). Speedup is "
        f"below the thread count on {len(sublinear)}/{len(parallel)} "
        f"multi-thread rows.",
        f"Worst work inflation: {worst['inflation']:.2f}x on {worst['graph']} "
        f"at {worst['threads']} threads (paper: up to 139x on warwiki). At "
        f"{widest} threads work exceeds the one-thread work on "
        f"{len(inflated)}/{len(at_widest)} graphs.",
    ])
