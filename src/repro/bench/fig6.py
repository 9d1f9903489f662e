"""Figure 6: algorithmic choice — MC vs. k-VC density threshold sweep.

For each graph, solve with φ in {0.1, 0.3, 0.5, 0.7, 0.9} (densities at or
above φ dispatch to k-VC on the complement) plus the MC-only configuration
(φ effectively 1 + kvc disabled), reporting total work per setting and the
per-density-bucket sub-solver work under the default φ.

Reproduction target: the correct choice matters per graph — some graphs
prefer a lower threshold (k-VC on mid-density subgraphs wins), others a
higher one, mirroring the paper's orkut/higgs discussion.
"""

from __future__ import annotations

from .. import LazyMCConfig, lazymc
from ..datasets import load, spec
from .harness import BenchConfig
from .reporting import listing, render_table

THRESHOLDS = [0.1, 0.3, 0.5, 0.7, 0.9]
#: Row keys of the sweep points: str(phi) as the JSON export writes them.
SETTINGS = [str(t) for t in THRESHOLDS] + ["mc_only"]
LABELS = [f"{int(t * 100)}%" for t in THRESHOLDS] + ["MC-only"]
HEADERS = ["graph"] + [f"work@{label}" for label in LABELS]


def run(config: BenchConfig | None = None) -> list[dict]:
    """Execute the sweep and return structured rows."""
    config = config or BenchConfig()
    rows = []
    for name in config.dataset_list():
        graph = load(name)
        row: dict = {"graph": name, "work": {}, "time": {}}
        for phi in THRESHOLDS:
            cfg = LazyMCConfig(density_threshold=phi, threads=config.threads,
                               max_seconds=config.timeout_seconds)
            result = lazymc(graph, cfg)
            row["work"][str(phi)] = result.counters.work
            row["time"][str(phi)] = result.wall_seconds
            if phi == 0.5:
                row["density_buckets"] = dict(result.funnel.density_work)
        cfg = LazyMCConfig(use_kvc=False, threads=config.threads,
                           max_seconds=config.timeout_seconds)
        result = lazymc(graph, cfg)
        row["work"]["mc_only"] = result.counters.work
        row["time"]["mc_only"] = result.wall_seconds
        rows.append(row)
    return rows


def render(rows: list[dict]) -> str:
    """The Fig. 6 report section: work per setting plus shape lines."""
    table = [[r["graph"]] + [r["work"][k] for k in SETTINGS] for r in rows]
    flat = [r["graph"] for r in rows if len(set(r["work"].values())) == 1]
    best = {}
    for r in rows:
        if r["graph"] not in flat:
            least = min(r["work"].values())
            label = "/".join(label for key, label in zip(SETTINGS, LABELS)
                             if r["work"][key] == least)
            best.setdefault(label, []).append(r["graph"])
    notes = [
        f"Work is the same at every setting on {len(flat)}/{len(rows)} "
        f"graphs: {listing(flat)}. The least-work settings on the others: "
        + ("; ".join(f"{label} on {listing(graphs)}"
                     for label, graphs in best.items()) or "none")
        + " (paper: the right threshold is graph-dependent).",
    ]
    bio = [r["work"]["mc_only"] / r["work"]["0.5"] for r in rows
           if spec(r["graph"]).family == "bio"]
    if bio:
        notes.append(
            f"On the bio graphs MC-only takes {min(bio):.2f}–{max(bio):.2f}x "
            f"the work of the default phi = 50% (paper: k-VC beats MC-only "
            f"by large factors on dense graphs).")
    return "\n\n".join([render_table(
        HEADERS, table,
        title="Figure 6 — work vs k-VC density threshold (phi)")] + notes)
