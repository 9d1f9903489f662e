"""Figure 5: early-exit intersection ablation.

Slowdown relative to full early exits when (a) every early exit is
disabled, (b) only the second (true-side) exit of intersect-size-gt-bool
is disabled.  Work units are the primary metric — the exits exist to cut
scanned elements, and the operation counters measure exactly that,
unpolluted by interpreter noise.

Reproduction targets: disabling all exits always costs (paper: up to
3.99× on dimacs, driven by the degree-based heuristic); disabling only
the second exit costs little and can even win slightly (paper: warwiki
and it ~10% faster without it).
"""

from __future__ import annotations

from .. import LazyMCConfig, lazymc
from ..datasets import load
from ..intersect import EarlyExitConfig
from .harness import BenchConfig, geometric_mean, repeat_timed
from .reporting import listing, render_table

HEADERS = ["graph", "slow_noexit(t)", "slow_no2nd(t)", "slow_noexit(w)",
           "slow_no2nd(w)", "exits_false", "exits_true"]

VARIANTS = {
    "full": EarlyExitConfig(enabled=True, second_exit=True),
    "none": EarlyExitConfig(enabled=False, second_exit=False),
    "no_second": EarlyExitConfig(enabled=True, second_exit=False),
}


def run(config: BenchConfig | None = None) -> list[dict]:
    """Execute the sweep and return structured rows."""
    config = config or BenchConfig()
    rows = []
    for name in config.dataset_list():
        graph = load(name)
        timings = {}
        works = {}
        values = {}
        for vname, ee in VARIANTS.items():
            cfg = LazyMCConfig(early_exit=ee, threads=config.threads,
                               max_seconds=config.timeout_seconds)
            timed = repeat_timed(lambda c=cfg: lazymc(graph, c), config.repeats,
                                 treat_as_timeout=lambda r: r.timed_out)
            timings[vname] = timed.mean_seconds
            works[vname] = timed.value.counters.work
            values[vname] = timed.value
        base_t = timings["full"] or 1e-12
        base_w = works["full"] or 1
        rows.append({
            "graph": name,
            "slowdown_noexit_time": timings["none"] / base_t,
            "slowdown_nosecond_time": timings["no_second"] / base_t,
            "slowdown_noexit_work": works["none"] / base_w,
            "slowdown_nosecond_work": works["no_second"] / base_w,
            "early_exits_false": values["full"].counters.early_exit_false,
            "early_exits_true": values["full"].counters.early_exit_true,
        })
    return rows


def summary(rows: list[dict]) -> dict:
    """Aggregate statistics over the rows."""
    return {
        "geomean_noexit_work": geometric_mean(
            [r["slowdown_noexit_work"] for r in rows]),
        "geomean_nosecond_work": geometric_mean(
            [r["slowdown_nosecond_work"] for r in rows]),
    }


def render(rows: list[dict]) -> str:
    """The Fig. 5 report section: slowdown table plus shape lines."""
    table = [[r["graph"], r["slowdown_noexit_time"], r["slowdown_nosecond_time"],
              r["slowdown_noexit_work"], r["slowdown_nosecond_work"],
              r["early_exits_false"], r["early_exits_true"]] for r in rows]
    s = summary(rows)
    table.append(["geomean", "", "", s["geomean_noexit_work"],
                  s["geomean_nosecond_work"], "", ""])
    costlier = [r for r in rows if r["slowdown_noexit_work"] > 1]
    worst = max(rows, key=lambda r: r["slowdown_noexit_work"])
    cheaper = [r["graph"] for r in rows if r["slowdown_nosecond_work"] < 1]
    return "\n\n".join([
        render_table(HEADERS, table, precision=3,
                     title="Figure 5 — early-exit intersection ablation"),
        f"Without early exits, work rises on {len(costlier)}/{len(rows)} "
        f"graphs, geomean {s['geomean_noexit_work']:.3f}, worst "
        f"{worst['slowdown_noexit_work']:.2f}x on {worst['graph']} (paper: "
        f"always slower, up to 3.99x on dimacs).",
        f"Disabling only the second exit costs "
        f"{s['geomean_nosecond_work']:.3f}x geomean; it saves work on "
        f"{listing(cheaper)} (paper: warwiki and it run faster without it).",
    ])
