"""Extra ablations beyond the paper's figures (DESIGN.md §5, items 4-6).

Three design choices the paper fixes without a dedicated figure, each swept
here:

* **Filter rounds** — the paper states "two iterations of degree-based
  filtering are sufficient" (§IV-D); we sweep 0/1/2/4 rounds.
* **Per-level seeding** — Alg. 7's pass of one low-coreness vertex per
  degeneracy level "improves performance especially for graphs with a high
  clique-core gap"; we toggle it.
* **Hash/sorted representation crossover** — §IV-A builds a hash set for
  degree > 16 and a sorted array otherwise; we sweep the threshold.
"""

from __future__ import annotations

from .. import LazyMCConfig, lazymc
from ..datasets import load
from .harness import BenchConfig
from .reporting import render_table

FILTER_ROUNDS = [0, 1, 2, 4]
HASH_THRESHOLDS = [0, 4, 16, 64, 10**9]


def run_filter_rounds(config: BenchConfig | None = None) -> list[dict]:
    """Work as a function of degree-filter repetitions."""
    config = config or BenchConfig()
    rows = []
    for name in config.dataset_list():
        graph = load(name)
        row: dict = {"graph": name, "work": {}, "searched": {}}
        omegas = set()
        for rounds in FILTER_ROUNDS:
            cfg = LazyMCConfig(filter_rounds=rounds, threads=config.threads,
                               max_seconds=config.timeout_seconds)
            result = lazymc(graph, cfg)
            row["work"][rounds] = result.counters.work
            row["searched"][rounds] = result.funnel.searched
            omegas.add(result.omega)
        row["exact_all_configs"] = len(omegas) == 1
        rows.append(row)
    return rows


def run_seeding(config: BenchConfig | None = None) -> list[dict]:
    """Alg. 7 seeding pass on/off."""
    config = config or BenchConfig()
    rows = []
    for name in config.dataset_list():
        graph = load(name)
        with_seed = lazymc(graph, LazyMCConfig(
            seed_per_level=True, threads=config.threads,
            max_seconds=config.timeout_seconds))
        without = lazymc(graph, LazyMCConfig(
            seed_per_level=False, threads=config.threads,
            max_seconds=config.timeout_seconds))
        rows.append({
            "graph": name,
            "gap": with_seed.gap,
            "work_seeded": with_seed.counters.work,
            "work_unseeded": without.counters.work,
            "ratio_unseeded": without.counters.work / max(with_seed.counters.work, 1),
            "exact": with_seed.omega == without.omega,
        })
    return rows


def run_hash_threshold(config: BenchConfig | None = None) -> list[dict]:
    """Representation-crossover degree threshold sweep."""
    config = config or BenchConfig()
    rows = []
    for name in config.dataset_list():
        graph = load(name)
        row: dict = {"graph": name, "work": {}, "built_hash": {}}
        omegas = set()
        for thr in HASH_THRESHOLDS:
            cfg = LazyMCConfig(hash_degree_threshold=thr,
                               threads=config.threads,
                               max_seconds=config.timeout_seconds)
            result = lazymc(graph, cfg)
            row["work"][thr] = result.counters.work
            row["built_hash"][thr] = result.counters.neighborhoods_built_hash
            omegas.add(result.omega)
        row["exact_all_configs"] = len(omegas) == 1
        rows.append(row)
    return rows


def run(config: BenchConfig | None = None) -> dict:
    """All three extra ablations."""
    return {
        "filter_rounds": run_filter_rounds(config),
        "seeding": run_seeding(config),
        "hash_threshold": run_hash_threshold(config),
    }


def render(results: dict) -> str:
    """Render rows as the paper-style text table."""
    parts = []
    rows = results["filter_rounds"]
    parts.append(render_table(
        ["graph"] + [f"work r={r}" for r in FILTER_ROUNDS] + ["exact"],
        [[r["graph"]] + [r["work"][k] for k in FILTER_ROUNDS]
         + [r["exact_all_configs"]] for r in rows],
        title="Extra ablation — degree-filter rounds"))
    rows = results["seeding"]
    parts.append(render_table(
        ["graph", "gap", "work seeded", "work unseeded", "ratio", "exact"],
        [[r["graph"], r["gap"], r["work_seeded"], r["work_unseeded"],
          r["ratio_unseeded"], r["exact"]] for r in rows],
        title="Extra ablation — Alg. 7 per-level seeding"))
    rows = results["hash_threshold"]
    parts.append(render_table(
        ["graph"] + [f"work thr={t}" for t in HASH_THRESHOLDS] + ["exact"],
        [[r["graph"]] + [r["work"][t] for t in HASH_THRESHOLDS]
         + [r["exact_all_configs"]] for r in rows],
        title="Extra ablation — hash/sorted representation threshold"))
    return "\n\n".join(parts)

