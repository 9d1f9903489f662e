#!/usr/bin/env python
"""Regenerate EXPERIMENTS.md: paper against measured for every table and figure.

Two steps.  First each paper artifact runs under its entry in
:data:`CONFIGS` and its rows are exported to ``experiments/<artifact>.json``.
Then EXPERIMENTS.md is rendered from those files alone, one section per
artifact by the artifact module's ``render``, so the committed report is a
pure function of the committed exports (a tier-1 test checks it byte for
byte).  A deliberate counter change re-runs this script, which re-exports
``experiments/`` and re-renders.  The export takes about three minutes.

Usage:  python scripts/generate_experiments.py
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.bench import ARTIFACTS
from repro.bench.export import export_artifact
from repro.bench.harness import BenchConfig

ROOT = Path(__file__).resolve().parent.parent
EXPORTS = ROOT / "experiments"
REPORT = ROOT / "EXPERIMENTS.md"

FAST = BenchConfig(repeats=1, timeout_seconds=60.0)
REPEATED = BenchConfig(repeats=3, timeout_seconds=60.0)
#: Artifact -> the config it is exported under, in report order.
CONFIGS = {
    "table1": FAST,
    "table2": REPEATED,
    "table3": FAST,
    "fig1": FAST,
    "fig2": FAST,
    "fig3": FAST,
    "fig4": REPEATED,
    "fig5": FAST,
    "fig6": FAST,
    "fig7": BenchConfig(datasets=("patents", "warwiki", "orkut", "human-1"),
                        repeats=1, timeout_seconds=120.0),
}

HEADER = """\
# EXPERIMENTS — paper vs. measured

Rendered by `python scripts/generate_experiments.py` from the exports in
[`experiments/`](experiments/), on synthetic analogues of the paper's 28
graphs (see DESIGN.md for the substitution rationale). Absolute numbers are
not comparable to the paper's testbed; the *shape* — who wins, by what
order, where the crossovers fall — is the reproduction target. Every
win, loss and match below is computed from the exported rows."""


def render_report(directory: Path = EXPORTS) -> str:
    """EXPERIMENTS.md as rendered from the artifact exports in ``directory``."""
    parts = [HEADER]
    total = 0.0
    for name in CONFIGS:
        record = json.loads((directory / f"{name}.json").read_text())
        config, machine = record["config"], record["machine"]
        parts.append(ARTIFACTS[name].render(record["rows"]))
        parts.append(
            f"*Rows: [`experiments/{name}.json`](experiments/{name}.json); "
            f"{len(config['datasets'])} graphs, {config['repeats']} "
            f"repeat(s), {record['generation_seconds']:.0f} s on "
            f"{machine['cpus']} CPUs, Python {machine['python']}.*")
        total += record["generation_seconds"]
    parts.append(f"*Total generation time: {total:.0f} s.*")
    return "\n\n".join(parts) + "\n"


def main() -> None:
    for name, config in CONFIGS.items():
        print(f"exporting {name} ...", flush=True)
        export_artifact(name, EXPORTS, config)
    REPORT.write_text(render_report())
    print(f"wrote {REPORT}")


if __name__ == "__main__":
    main()
