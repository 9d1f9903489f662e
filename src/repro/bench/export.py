"""JSON export of bench artifacts.

Every artifact's ``run`` output is plain dict/list data; this module
serializes it (with numpy scalars coerced) so downstream tooling — plots,
regression tracking, EXPERIMENTS.md generation — can consume the results
without re-running the sweeps.
"""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from .harness import BenchConfig


def _coerce(obj):
    if isinstance(obj, dict):
        return {str(k): _coerce(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_coerce(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def export_artifact(name: str, output_dir: str | Path,
                    config: BenchConfig | None = None) -> Path:
    """Run one artifact and write ``<output_dir>/<name>.json``.

    The file carries the rows plus the configuration and the machine
    used, so results (wall columns included) are self-describing.
    """
    from . import ARTIFACTS

    if name not in ARTIFACTS:
        raise KeyError(f"unknown artifact {name!r}; known: {', '.join(ARTIFACTS)}")
    config = config or BenchConfig()
    output_dir = Path(output_dir)
    output_dir.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    rows = ARTIFACTS[name].run(config)
    record = {
        "artifact": name,
        "config": {
            "datasets": config.dataset_list(),
            "repeats": config.repeats,
            "timeout_seconds": config.timeout_seconds,
            "threads": config.threads,
            "engine": config.engine,
        },
        "machine": {"cpus": os.cpu_count(),
                    "python": platform.python_version()},
        "generation_seconds": time.perf_counter() - t0,
        "rows": _coerce(rows),
    }
    path = output_dir / f"{name}.json"
    path.write_text(json.dumps(record, indent=2))
    return path
