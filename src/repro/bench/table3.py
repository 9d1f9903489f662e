"""Table III: fraction of right-neighborhoods retained after each filter.

Normalized per thousand vertices, exactly as the paper presents it.
Gap-zero graphs where the heuristic finds ω evaluate no neighborhoods at
all — those rows are all zeros, matching the paper's uk-union/dimacs/... .
The reproduction target is the funnel *shape*: coreness ≈ filter1 >>
filter2 >= filter3 on most graphs, with dense bio graphs retaining
much more.
"""

from __future__ import annotations

from .. import LazyMCConfig, lazymc
from ..datasets import load, spec
from .harness import BenchConfig
from .reporting import listing, render_table

STAGES = ["coreness", "filter1", "filter2", "filter3"]
HEADERS = ["graph"] + STAGES + ["searched"]


def run(config: BenchConfig | None = None) -> list[dict]:
    """Execute the sweep and return structured rows."""
    config = config or BenchConfig()
    rows = []
    for name in config.dataset_list():
        graph = load(name)
        result = lazymc(graph, LazyMCConfig(
            threads=config.threads, max_seconds=config.timeout_seconds))
        pm = result.funnel.per_mille(graph.n)
        rows.append({
            "graph": name,
            "coreness": pm["coreness"],
            "filter1": pm["filter1"],
            "filter2": pm["filter2"],
            "filter3": pm["filter3"],
            "searched": result.funnel.searched * 1000.0 / graph.n,
        })
    return rows


def _largest_drop(row: dict) -> str:
    """The filter whose survivors fall by the largest factor."""
    def factor(i: int) -> float:
        before, after = row[STAGES[i - 1]], row[STAGES[i]]
        if after:
            return before / after
        return float("inf") if before else 1.0
    return STAGES[max(range(1, len(STAGES)), key=factor)]


def render(rows: list[dict]) -> str:
    """The Table III report section: funnel table plus shape lines."""
    table = [[r["graph"]] + [r[k] for k in STAGES] + [r["searched"]]
             for r in rows]
    zero = [r["graph"] for r in rows if r["coreness"] == 0]
    paper_zero = [r["graph"] for r in rows
                  if (p := spec(r["graph"]).paper).gap == 0
                  and p.omega in (p.heur_degree, p.heur_coreness)]
    evaluated = [r for r in rows if r["coreness"] > 0]
    by_filter2 = [r for r in evaluated if _largest_drop(r) == "filter2"]
    bio = [r["filter3"] for r in rows if spec(r["graph"]).family == "bio"]
    other = [r["filter3"] for r in rows if spec(r["graph"]).family != "bio"]
    notes = [
        f"All-zero rows (no neighborhood evaluated): measured "
        f"{listing(zero)}; paper (gap zero and a heuristic finds ω) "
        f"{listing(paper_zero)}. The two sets "
        f"{'agree' if set(zero) == set(paper_zero) else 'differ'}.",
        f"Filter 2 is the largest single drop on {len(by_filter2)} of "
        f"{len(evaluated)} graphs that evaluate neighborhoods (paper: the "
        f"decisive filter on sparse graphs).",
    ]
    if bio and other:
        notes.append(
            f"After filter 3, bio graphs retain {min(bio):.1f}–"
            f"{max(bio):.1f} per thousand and the other graphs at most "
            f"{max(other):.1f} (paper: dense bio graphs retain far more).")
    return "\n\n".join([render_table(
        HEADERS, table, precision=3,
        title="Table III — right-neighborhoods retained per filter "
              "(per thousand vertices)")] + notes)
