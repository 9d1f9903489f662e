"""Figure 1: may/must subgraph fractions.

For every graph (after solving for ω): the fraction of vertices and edges
in the *must* subgraph (coreness > ω - 1), the *may* subgraph
(coreness >= ω - 1), and the *attached* edges (incident to the may set).
The paper's observations to reproduce: gap-zero graphs have an empty must
subgraph, and even gap-positive graphs keep must/may fractions well below
the whole graph (motivating the lazy representation).
"""

from __future__ import annotations

from .. import LazyMCConfig, lazymc
from ..datasets import load
from ..graph import may_must_report
from .harness import BenchConfig, median
from .reporting import render_table

HEADERS = ["graph", "gap", "must_v%", "may_v%", "must_e%", "may_e%",
           "attached_e%"]


def run(config: BenchConfig | None = None) -> list[dict]:
    """Execute the sweep and return structured rows."""
    config = config or BenchConfig()
    rows = []
    for name in config.dataset_list():
        graph = load(name)
        result = lazymc(graph, LazyMCConfig(
            threads=config.threads, max_seconds=config.timeout_seconds))
        rep = may_must_report(graph, result.omega)
        rows.append({
            "graph": name,
            "gap": rep.gap,
            "must_v": rep.must_vertex_fraction,
            "may_v": rep.may_vertex_fraction,
            "must_e": rep.must_edge_fraction,
            "may_e": rep.may_edge_fraction,
            "attached_e": rep.attached_edge_fraction,
        })
    return rows


def render(rows: list[dict]) -> str:
    """The Fig. 1 report section: fraction table plus shape lines."""
    table = [[r["graph"], r["gap"], 100 * r["must_v"], 100 * r["may_v"],
              100 * r["must_e"], 100 * r["may_e"], 100 * r["attached_e"]]
             for r in rows]
    gap_zero = [r for r in rows if r["gap"] == 0]
    empty_must = [r for r in gap_zero if r["must_v"] == 0]
    within = [r for r in rows if r["may_e"] <= r["attached_e"]]
    widest = max(rows, key=lambda r: r["may_v"])
    return "\n\n".join([
        render_table(HEADERS, table, precision=2,
                     title="Figure 1 — may/must zone-of-interest "
                           "fractions (%)"),
        f"Gap-zero graphs with an empty must subgraph: {len(empty_must)}/"
        f"{len(gap_zero)} (paper, Fig. 1a: every gap-zero graph). Graphs "
        f"whose may edges lie within the attached edges: {len(within)}/"
        f"{len(rows)}.",
        f"The may subgraph holds at most {100 * widest['may_v']:.2f}% of the "
        f"vertices ({widest['graph']}), median "
        f"{100 * median([r['may_v'] for r in rows]):.2f}% (paper: the zone "
        f"of interest is a small fraction of the graph).",
    ])
