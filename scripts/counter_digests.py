#!/usr/bin/env python
"""Counter digests: one hash per (registry graph, config) solve.

Each digest covers ω, the sorted clique, every ``Counters`` field and every
``FilterFunnel`` field (``density_work`` included) of one LazyMC solve.  A
refactor that claims identical counters must leave every digest unchanged;
a deliberate counter change regenerates the file and lists the changed keys
in CHANGES.md.

Usage::

    python scripts/counter_digests.py --write counter_digests.json
    python scripts/counter_digests.py --check counter_digests.json

``--check`` exits 1 and prints every key whose digest differs, is missing
or is new.  Both modes solve the 28 registry graphs under each config in
:data:`CONFIGS` (about 300 solves).
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import sys

from repro.core import LazyMCConfig, PrepopulatePolicy
from repro.core.solver import lazymc
from repro.datasets import registry
from repro.intersect.early_exit import EarlyExitConfig

#: ``name -> LazyMCConfig overrides``: every toggle whose counters the
#: lazy graph, the filters or an arm could move.
CONFIGS: dict[str, dict] = {
    "default": {},
    "filter_rounds=0": {"filter_rounds": 0},
    "filter_rounds=1": {"filter_rounds": 1},
    "filter_rounds=3": {"filter_rounds": 3},
    "early_exit=off": {"early_exit": EarlyExitConfig(enabled=False)},
    "second_exit=off": {"early_exit": EarlyExitConfig(second_exit=False)},
    "threads=4": {"threads": 4},
    "engine=seq": {"engine": "seq"},
    "prepopulate=all": {"prepopulate": PrepopulatePolicy.ALL},
    "prepopulate=none": {"prepopulate": PrepopulatePolicy.NONE},
}


def digest(result) -> str:
    """sha256 over ω, the sorted clique, the counters and the funnel."""
    record = {
        "omega": result.omega,
        "clique": sorted(result.clique),
        "counters": result.counters.as_dict(),
        "funnel": dataclasses.asdict(result.funnel),
    }
    text = json.dumps(record, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def compute() -> dict[str, str]:
    """``"graph|config" -> digest`` for every registry graph and config."""
    out: dict[str, str] = {}
    for name in registry.names():
        graph = registry.load(name)
        for label, overrides in CONFIGS.items():
            out[f"{name}|{label}"] = digest(
                lazymc(graph, LazyMCConfig(**overrides)))
    return out


def diff(want: dict[str, str], got: dict[str, str]) -> list[str]:
    """The keys whose digest differs, is missing from ``got`` or is new."""
    return sorted(key for key in want.keys() | got.keys()
                  if want.get(key) != got.get(key))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--write", metavar="FILE",
                      help="record the digests in FILE")
    mode.add_argument("--check", metavar="FILE",
                      help="compare against FILE; exit 1 on any difference")
    args = parser.parse_args(argv)
    got = compute()
    if args.write:
        with open(args.write, "w") as fh:
            json.dump(got, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {len(got)} digests to {args.write}")
        return 0
    with open(args.check) as fh:
        want = json.load(fh)
    changed = diff(want, got)
    for key in changed:
        print(f"differs: {key}")
    print(f"{len(got) - len(changed)} of {len(want.keys() | got.keys())} "
          f"digests equal")
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
