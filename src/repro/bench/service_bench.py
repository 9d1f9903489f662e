"""Service-layer throughput microbench: cache, degradation, batching.

Not a paper artifact — it measures the serving layer (:mod:`repro.service`)
the reproduction grows on top of the paper: how much a result-cache hit
saves over a cold solve, what a degraded (budget-bound) answer costs, and
the sustained query throughput of one service instance under a batch of
repeated queries.

The work-avoidance framing carries over directly: a cache hit is the
limiting case of avoided work (zero), a degraded answer is bounded work,
and the `speedup` column quantifies the gap.
"""

from __future__ import annotations

import time

from ..service import CliqueService, JobSpec, ServiceConfig
from .harness import BenchConfig
from .reporting import render_table

#: Fast, structurally diverse defaults (road / web / bio / social) so the
#: bench stays interactive; ``--datasets`` overrides.
DEFAULT_DATASETS = ("CAroad", "dblp", "WormNet", "soflow")

#: Budget for the degraded-query column: small enough to trip on every
#: non-trivial dataset, large enough for the heuristic phases to produce a
#: meaningful incumbent.
DEGRADED_MAX_WORK = 500

#: Queries per dataset in the throughput batch (first is the cold miss).
BATCH = 50


def run(config: BenchConfig | None = None) -> list[dict]:
    """Measure per-dataset cold/warm/degraded latency and batch throughput."""
    config = config or BenchConfig()
    datasets = list(config.datasets) if config.datasets else list(DEFAULT_DATASETS)
    rows = []
    for name in datasets:
        service = CliqueService(ServiceConfig(
            workers=0, defaults={"max_seconds": config.timeout_seconds}))
        spec = JobSpec(target=name, config={"threads": config.threads})

        t0 = time.perf_counter()
        cold = service.solve(spec)
        cold_s = time.perf_counter() - t0

        t0 = time.perf_counter()
        for _ in range(BATCH - 1):
            warm = service.solve(spec)
        warm_s = (time.perf_counter() - t0) / (BATCH - 1)

        t0 = time.perf_counter()
        degraded = service.solve(JobSpec(
            target=name, config={"threads": config.threads,
                                 "max_work": DEGRADED_MAX_WORK}))
        degraded_s = time.perf_counter() - t0

        info = service.results.info()
        rows.append({
            "graph": name,
            "omega": cold.omega,
            "cold_ms": 1e3 * cold_s,
            "warm_ms": 1e3 * warm_s,
            "speedup": cold_s / warm_s if warm_s > 0 else float("inf"),
            "warm_qps": 1.0 / warm_s if warm_s > 0 else float("inf"),
            "degraded_ms": 1e3 * degraded_s,
            "degraded_omega": degraded.omega,
            "degraded_exact": degraded.exact,
            "hit_rate": info["hit_rate"],
            "cached_ok": warm.cached,
        })
        service.shutdown()
    return rows


def render(rows: list[dict]) -> str:
    """Paper-style text table of the measurements."""
    return render_table(
        ["graph", "omega", "cold (ms)", "warm (ms)", "speedup", "warm qps",
         "degraded (ms)", "deg. omega", "exact"],
        [[r["graph"], r["omega"], f'{r["cold_ms"]:.2f}', f'{r["warm_ms"]:.3f}',
          f'{r["speedup"]:.0f}x', f'{r["warm_qps"]:.0f}',
          f'{r["degraded_ms"]:.2f}', r["degraded_omega"],
          "yes" if r["degraded_exact"] else "no"] for r in rows],
        title="Service — cold vs cached vs budget-degraded queries")

