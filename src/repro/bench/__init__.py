"""Benchmark harness regenerating every table and figure of the paper.

One module per artifact; each exposes ``run(config)`` returning structured
rows and ``render(rows) -> str``, the artifact's one report section
(heading, markdown table, shape lines computed from the rows).  The CLI
(``python -m repro bench <id>``) prints ``render(run(config))``;
``scripts/generate_experiments.py`` exports the rows to ``experiments/``
and renders EXPERIMENTS.md from those files alone.  The pytest-benchmark
wrappers under ``benchmarks/`` drive ``run``.

Artifacts (DESIGN.md §4):

========  =====================================================
table1    Graph characterization (Table I)
table2    Overall runtime comparison of 5 solvers (Table II)
table3    Filter funnel survival per-mille (Table III)
fig1      may/must subgraph fractions (Fig. 1)
fig2      Relative time per LazyMC phase (Fig. 2)
fig3      Systematic-search work breakdown (Fig. 3)
fig4      Laziness/prepopulation ablation (Fig. 4)
fig5      Early-exit intersection ablation (Fig. 5)
fig6      Algorithmic-choice density threshold sweep (Fig. 6)
fig7      Parallel scaling and work inflation (Fig. 7; sim or process)
extras    Filter-rounds / seeding / hash-threshold ablations (DESIGN §5)
micro     Kernel microbenchmarks: representations + early-exit savings
engines   Execution-engine race: sequential vs real multiprocessing
service   Query-service throughput: cache hits, degradation, batching
========  =====================================================
"""

from . import (engines, extras, micro, fig1, fig2, fig3, fig4, fig5, fig6,
               fig7, service_bench, table1, table2, table3)
from .harness import BenchConfig, repeat_timed
from .reporting import render_table

ARTIFACTS = {
    "table1": table1,
    "table2": table2,
    "table3": table3,
    "fig1": fig1,
    "fig2": fig2,
    "fig3": fig3,
    "fig4": fig4,
    "fig5": fig5,
    "fig6": fig6,
    "fig7": fig7,
    "extras": extras,
    "micro": micro,
    "engines": engines,
    "service": service_bench,
}

__all__ = ["ARTIFACTS", "BenchConfig", "repeat_timed", "render_table"]
