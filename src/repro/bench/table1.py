"""Table I: characterization of the evaluation graphs.

Columns mirror the paper: |V|, |E|, max degree Δ, degeneracy d, maximum
clique size ω, clique-core gap g = d + 1 - ω, and the incumbent sizes the
two heuristic searches find (ω̂_d, ω̂_h).  Paper values for the real graphs
are attached to every row so the shape comparison (gap-zero rows, rows
where a heuristic finds ω) is one diff away.
"""

from __future__ import annotations

from .. import LazyMCConfig, lazymc
from ..datasets import load, spec
from .harness import BenchConfig
from .reporting import listing, render_table

HEADERS = ["graph", "V", "E", "maxdeg", "d", "omega", "gap", "heur_d",
           "heur_h", "paper gap", "gap=0 match", "heur hits ω (paper)",
           "heur hits ω"]


def run(config: BenchConfig | None = None) -> list[dict]:
    """Execute the sweep and return structured rows."""
    config = config or BenchConfig()
    rows = []
    for name in config.dataset_list():
        graph = load(name)
        s = spec(name)
        result = lazymc(graph, LazyMCConfig(
            threads=config.threads, max_seconds=config.timeout_seconds))
        rows.append({
            "graph": name,
            "V": graph.n,
            "E": graph.m,
            "maxdeg": graph.max_degree(),
            "d": result.degeneracy,
            "omega": result.omega,
            "gap": result.gap,
            "heur_d": result.heuristic_degree_size,
            "heur_h": result.heuristic_coreness_size,
            # Shape checks against the paper's Table I.
            "paper_gap_zero": s.paper.gap == 0,
            "gap_zero": result.gap == 0,
            "paper_heur_hits": (s.paper.heur_degree == s.paper.omega
                                or s.paper.heur_coreness == s.paper.omega),
            "heur_hits": (result.heuristic_degree_size == result.omega
                          or result.heuristic_coreness_size == result.omega),
        })
    return rows


def render(rows: list[dict]) -> str:
    """The Table I report section: table plus shape score."""
    body = []
    for r in rows:
        body.append([r["graph"], r["V"], r["E"], r["maxdeg"], r["d"],
                     r["omega"], r["gap"], r["heur_d"], r["heur_h"],
                     spec(r["graph"]).paper.gap,
                     r["paper_gap_zero"] == r["gap_zero"],
                     r["paper_heur_hits"], r["heur_hits"]])
    gap_miss = [r["graph"] for r in rows
                if r["paper_gap_zero"] != r["gap_zero"]]
    heur_miss = [r["graph"] for r in rows
                 if r["paper_heur_hits"] != r["heur_hits"]]
    n = len(rows)
    return "\n\n".join([
        render_table(HEADERS, body,
                     title="Table I — graph characterization"),
        "Paper columns describe the real graph, the others its synthetic "
        "analogue. The comparison targets are the classification columns: "
        "clique-core gap zero or positive, and whether a heuristic search "
        "finds ω (bold in the paper's table).",
        f"**Shape score**: gap-zero classification matches the paper on "
        f"{n - len(gap_miss)}/{n} graphs (mismatched: {listing(gap_miss)}); "
        f"heuristic-finds-ω classification matches on "
        f"{n - len(heur_miss)}/{n} (mismatched: {listing(heur_miss)}).",
    ])
