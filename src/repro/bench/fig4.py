"""Figure 4: laziness ablation — prepopulate all vs. none vs. must.

Slowdown (time relative to the *must*-prepopulation baseline) when hashed
neighborhoods are built for every vertex up front ("all") or strictly on
demand ("none").  Work-unit ratios are reported alongside wall time
because at analogue scale Python's constant factors can drown small
structural differences.

Reproduction targets: "all" is clearly harmful on graphs whose search
never touches most neighborhoods (the paper sees up to 26× on uk);
"none" hovers around 1 (paper geomean 0.996), sometimes winning when the
heuristic already finds ω.
"""

from __future__ import annotations

from .. import LazyMCConfig, PrepopulatePolicy, lazymc
from ..datasets import load
from .harness import BenchConfig, geometric_mean, repeat_timed
from .reporting import render_table

HEADERS = ["graph", "slow_all(t)", "slow_none(t)", "slow_all(w)",
           "slow_none(w)", "built_must", "built_all"]

POLICIES = [PrepopulatePolicy.MUST, PrepopulatePolicy.ALL, PrepopulatePolicy.NONE]


def run(config: BenchConfig | None = None) -> list[dict]:
    """Execute the sweep and return structured rows."""
    config = config or BenchConfig()
    rows = []
    for name in config.dataset_list():
        graph = load(name)
        timings = {}
        works = {}
        built = {}
        for policy in POLICIES:
            cfg = LazyMCConfig(prepopulate=policy, threads=config.threads,
                               max_seconds=config.timeout_seconds)
            timed = repeat_timed(lambda c=cfg: lazymc(graph, c), config.repeats,
                                 treat_as_timeout=lambda r: r.timed_out)
            timings[policy] = timed.mean_seconds
            works[policy] = timed.value.counters.work
            # Prepopulation now follows the degree rule, so "built" is
            # hash + sorted representations, not hash alone.
            built[policy] = (timed.value.counters.neighborhoods_built_hash
                             + timed.value.counters.neighborhoods_built_sorted)
        base_t = timings[PrepopulatePolicy.MUST] or 1e-12
        base_w = works[PrepopulatePolicy.MUST] or 1
        rows.append({
            "graph": name,
            "slowdown_all_time": timings[PrepopulatePolicy.ALL] / base_t,
            "slowdown_none_time": timings[PrepopulatePolicy.NONE] / base_t,
            "slowdown_all_work": works[PrepopulatePolicy.ALL] / base_w,
            "slowdown_none_work": works[PrepopulatePolicy.NONE] / base_w,
            "built_must": built[PrepopulatePolicy.MUST],
            "built_all": built[PrepopulatePolicy.ALL],
        })
    return rows


def summary(rows: list[dict]) -> dict:
    """Aggregate statistics over the rows."""
    return {
        "geomean_all_time": geometric_mean([r["slowdown_all_time"] for r in rows]),
        "geomean_none_time": geometric_mean([r["slowdown_none_time"] for r in rows]),
        "geomean_all_work": geometric_mean([r["slowdown_all_work"] for r in rows]),
        "geomean_none_work": geometric_mean([r["slowdown_none_work"] for r in rows]),
    }


def render(rows: list[dict]) -> str:
    """The Fig. 4 report section: slowdown table plus shape lines."""
    table = [[r["graph"], r["slowdown_all_time"], r["slowdown_none_time"],
              r["slowdown_all_work"], r["slowdown_none_work"],
              r["built_must"], r["built_all"]] for r in rows]
    s = summary(rows)
    table.append(["geomean", s["geomean_all_time"], s["geomean_none_time"],
                  s["geomean_all_work"], s["geomean_none_work"], "", ""])
    n = len(rows)
    all_worse = [r for r in rows if r["slowdown_all_work"] > 1]
    worst = max(rows, key=lambda r: r["slowdown_all_work"])
    none_less = [r for r in rows if r["slowdown_none_work"] < 1]
    none_more = [r for r in rows if r["slowdown_none_work"] > 1]
    return "\n\n".join([
        render_table(HEADERS, table, precision=3,
                     title="Figure 4 — prepopulation (laziness) ablation"),
        "Slowdowns are against prepopulating the must subgraph, in wall "
        "time (t) and in work units (w).",
        f"Prepopulating all costs more work on {len(all_worse)}/{n} graphs, "
        f"geomean {s['geomean_all_work']:.3f}, worst "
        f"{worst['slowdown_all_work']:.2f}x on {worst['graph']} (paper: "
        f"clearly harmful, up to 26x on uk).",
        f"Full laziness costs less work on {len(none_less)}/{n} graphs and "
        f"more on {len(none_more)}/{n}, geomean "
        f"{s['geomean_none_work']:.3f} (paper: geomean 0.996).",
    ])
