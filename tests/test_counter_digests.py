"""The counter-digest gate: ``scripts/counter_digests.py``.

The full ``--check`` solves about 300 registry inputs and runs as its own
CI job; these tests cover its parts on small inputs.
"""

import importlib.util
import json
from pathlib import Path

from repro.core import LazyMCConfig
from repro.core.solver import lazymc
from repro.datasets import registry
from tests.conftest import random_graph

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "counter_digests", ROOT / "scripts" / "counter_digests.py")
counter_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(counter_digests)


def test_committed_file_covers_every_graph_and_config():
    committed = json.loads((ROOT / "COUNTER_DIGESTS.json").read_text())
    assert set(committed) == {f"{name}|{label}"
                              for name in registry.names()
                              for label in counter_digests.CONFIGS}


def test_digest_repeats_and_sees_counters():
    g = random_graph(30, 0.4, seed=3)
    a = lazymc(g, LazyMCConfig())
    assert counter_digests.digest(a) == \
        counter_digests.digest(lazymc(g, LazyMCConfig()))
    a.counters.hash_lookups += 1
    assert counter_digests.digest(a) != \
        counter_digests.digest(lazymc(g, LazyMCConfig()))


def test_diff_lists_changed_missing_and_new_keys():
    want = {"a|x": "1", "b|x": "2", "c|x": "3"}
    got = {"a|x": "1", "b|x": "9", "d|x": "4"}
    assert counter_digests.diff(want, got) == ["b|x", "c|x", "d|x"]
    assert counter_digests.diff(want, dict(want)) == []
