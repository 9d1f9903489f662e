"""Acceptance: tracing never perturbs the solve, traces are reproducible.

Two properties from the issue, pinned hard:

* With tracing disabled (the default), ``Counters`` are **bit-identical**
  to the pre-tracing baseline — golden values captured on the seed
  datasets are asserted exactly, and a traced run must match an untraced
  run field for field.
* With tracing enabled at full sampling, re-running the same solve
  produces a **byte-identical** JSONL stream (the virtual clock admits no
  machine-dependent field by default).
"""

import hashlib

import pytest

from repro import LazyMCConfig, lazymc
from repro.datasets import load
from repro.trace import TraceRecorder, validate_events

# Golden nonzero counter values captured at this revision.  The tracer
# must never move these: it reads counters for its clock, it does not
# count.  If a *solver* change legitimately shifts work, re-capture —
# but a tracing change never may.
GOLDEN = {
    "dblp": {
        "omega": 9,
        "work": 5749,
        "counters": {
            "elements_scanned": 5552,
            "intersections": 244,
            "early_exit_false": 99,
            "hash_lookups": 1113,
            "hash_inserts": 197,
            "neighborhoods_built_sorted": 21,
            "neighbors_filtered_at_build": 60,
        },
    },
    "WormNet": {
        "omega": 24,
        "work": 90865,
        "counters": {
            "elements_scanned": 78649,
            "intersections": 3325,
            "early_exit_false": 2744,
            "early_exit_true": 173,
            "hash_lookups": 59479,
            "hash_inserts": 12216,
            "neighborhoods_built_hash": 126,
            "neighbors_filtered_at_build": 209,
        },
    },
    # Reaches filter 3 and the k-VC arm on every searched neighborhood,
    # so it pins the filter funnel and the sub-solver, not only the
    # heuristics and the lazy graph.
    "mouse": {
        "omega": 30,
        "work": 1674810,
        "counters": {
            "elements_scanned": 1649523,
            "intersections": 16848,
            "early_exit_false": 2199,
            "early_exit_true": 7159,
            "hash_lookups": 764862,
            "hash_inserts": 23909,
            "neighborhoods_built_hash": 148,
            "neighbors_filtered_at_build": 46,
            "kvc_subsolves": 119,
            "branch_nodes": 1378,
            "kernel_reductions": 4253,
        },
    },
}


def nonzero(counters) -> dict:
    return {k: v for k, v in counters.as_dict().items() if v}


class TestDisabledPathIsBitIdentical:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_untraced_matches_golden(self, name):
        graph = load(name)
        result = lazymc(graph)
        assert result.omega == GOLDEN[name]["omega"]
        assert result.counters.work == GOLDEN[name]["work"]
        assert nonzero(result.counters) == GOLDEN[name]["counters"]

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_traced_counters_equal_untraced(self, name):
        graph = load(name)
        plain = lazymc(graph)
        traced = lazymc(graph, tracer=TraceRecorder())
        assert traced.counters.as_dict() == plain.counters.as_dict()
        assert traced.omega == plain.omega
        assert traced.clique == plain.clique
        # And both still match the pinned baseline, closing the loop.
        assert nonzero(traced.counters) == GOLDEN[name]["counters"]


class TestTracedStreamsAreByteIdentical:
    def test_full_sampling_rerun_is_byte_identical(self):
        graph = load("WormNet")
        first, second = TraceRecorder(), TraceRecorder()
        lazymc(graph, tracer=first)
        lazymc(graph, tracer=second)
        assert first.to_jsonl() == second.to_jsonl()
        assert first.dropped == 0
        validate_events(first.all_events())

    def test_sampled_rerun_is_byte_identical(self):
        graph = load("dblp")
        first = TraceRecorder(sample_every=10)
        second = TraceRecorder(sample_every=10)
        lazymc(graph, tracer=first)
        lazymc(graph, tracer=second)
        assert first.to_jsonl() == second.to_jsonl()

    def test_wall_clock_is_the_only_nondeterminism(self):
        graph = load("dblp")
        rec = TraceRecorder()
        lazymc(graph, tracer=rec)
        with_wall = rec.all_events(include_wall=True)
        assert any("wall" in e for e in with_wall)
        stripped = [{k: v for k, v in e.items() if k != "wall"}
                    for e in with_wall]
        assert stripped == rec.all_events()


class TestStreamsArePinned:
    """The virtual-clock streams, byte for byte, as sha256 of
    ``to_jsonl()``: the tracer reads the run's counters, so a change to
    how parfor tasks account their work must leave every ``vt`` alone, at
    one simulated worker and at several."""

    DIGESTS = {
        ("WormNet", 1): "67d789bf649ee6807fda893301cc258c"
                        "255f984d66929f28fab7c2b1cfa5e58b",
        ("WormNet", 4): "309e6d904c2623fa5346569463c13a69"
                        "9ef55d303a2aaf688bfc03345dbcc545",
        ("HS-CX", 1): "4d8b84705185e18f8c9bd330b1748197"
                      "f11cd95176f61f32d7bdb429bbad630f",
        ("HS-CX", 4): "89a51c77b50f7ddf03cb30a4ea1f8d29"
                      "58aa10f60443ae28426d435837ec499b",
        ("mouse", 1): "9a48cb814226a6adf46911505deaac23"
                      "ca340dfe8e3de541b720f8ebd8a6df4c",
        ("mouse", 4): "64b9fdae824cb96ad614ee4f9e422788"
                      "5997b3aa574a5a08931f188ae83c6993",
    }

    @pytest.mark.parametrize("name,threads", sorted(DIGESTS))
    def test_stream_digest(self, name, threads):
        rec = TraceRecorder()
        lazymc(load(name), LazyMCConfig(threads=threads), tracer=rec)
        stream = rec.to_jsonl(include_wall=False).encode()
        assert hashlib.sha256(stream).hexdigest() == \
            self.DIGESTS[(name, threads)]


class TestTracedConfigVariants:
    """Every sub-solver arm stays correct and trace-clean under tracing."""

    CONFIGS = {
        "default": LazyMCConfig(),
        "no_kvc": LazyMCConfig(use_kvc=False),
    }

    @pytest.mark.parametrize("label", sorted(CONFIGS))
    def test_tracing_is_transparent_on_subsolver_heavy_graph(self, label):
        cfg = self.CONFIGS[label]
        graph = load("HS-CX")  # small but actually exercises sub-solves
        plain = lazymc(graph, cfg)
        rec = TraceRecorder()
        traced = lazymc(graph, cfg, tracer=rec)
        assert traced.counters.as_dict() == plain.counters.as_dict()
        assert traced.omega == plain.omega
        assert traced.verify(graph)
        validate_events(rec.all_events())
        footer = rec.all_events()[-1]
        assert footer["complete"] is True
        assert footer["vt"] == traced.counters.work
