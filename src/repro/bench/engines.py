"""Engine race: sequential vs real multiprocessing execution.

Not a paper artifact — the measurement base for the execution-engine
layer (:mod:`repro.parallel.engine`).  Two workloads from
:func:`repro.bench.micro.run_engine_race`:

* **needle** — a synthetic parfor where one task immediately finds a
  large clique and every other task burns CPU unless the publication is
  visible at its start.  Sequential execution burns every pre-needle
  task; process workers sharing the incumbent stop burning the moment
  one of them hits the needle — so the wall-clock win survives even on
  a single-core machine, because it comes from *work deflation*, not
  from parallel speed.
* **lazymc-<dataset>** — a full solve on both engines, confirming the
  process engine is exact end-to-end and reporting its measured wall
  time.

Sequential-row counters are deterministic and regression-checked against
the committed ``BENCH_5.json``; process rows are ``ndet_``-prefixed
(racy publication timing) and wall fields are machine-dependent — both
excluded by :mod:`repro.bench.regress`.
"""

from __future__ import annotations

from .harness import BenchConfig
from .micro import run_engine_race
from .reporting import render_table

HEADERS = ["workload", "engine", "burned", "pruned", "work", "wall (s)"]


def run(config: BenchConfig | None = None) -> dict:
    """Execute the race and return structured rows (one ``race`` section)."""
    return {"race": run_engine_race()}


def render(results: dict) -> str:
    """Render rows as a text table."""
    table = []
    for r in results["race"]:
        table.append([
            r["name"],
            r["engine"],
            r.get("burned", r.get("ndet_burned", "-")),
            r.get("pruned", r.get("ndet_pruned", "-")),
            r.get("work", r.get("ndet_work", "-")),
            f'{r.get("wall_parfor", r.get("wall_solve", 0.0)):.3f}',
        ])
    return render_table(HEADERS, table,
                        title="Engines — sequential vs multiprocessing "
                              "(needle race + full solve)")

