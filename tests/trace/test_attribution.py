"""Tests for the work account of one solve and for trace summaries.

Where the work went is on the result itself: ``timers`` splits
``Counters.work`` over the Alg. 1 phases, and ``funnel`` splits the
systematic phase into filtering and sub-solver work and counts the
neighborhoods each filter refuted.  The claim is exactness: phase work
sums to ``Counters.work``, funnel work to the systematic phase, and the
filter refutations to ``considered - searched``.
"""

import pytest

from repro import LazyMCConfig, lazymc
from repro.datasets import load
from repro.graph.generators import camouflaged_clique
from repro.instrument import Counters
from repro.trace import TraceRecorder, summarize_events

CONFIGS = {
    "default": LazyMCConfig(),
    "no_kvc": LazyMCConfig(use_kvc=False),
    "process": LazyMCConfig(engine="process", processes=2),
    **{f"filter_rounds_{r}": LazyMCConfig(filter_rounds=r) for r in range(4)},
}


def pruned_by_filter(funnel) -> dict:
    """Neighborhoods each filter refuted: the funnel's stage deltas."""
    return {
        "lazy_filter": funnel.after_coreness - funnel.after_filter1,
        "early_exit_filter": funnel.after_filter1 - funnel.after_filter2,
        "advance_filter": funnel.after_filter2 - funnel.after_filter3,
    }


def check_invariants(result):
    """The exact-sum invariants of a run without resume."""
    timers, funnel = result.timers, result.funnel
    assert sum(timers.work.values()) == result.counters.work
    assert set(timers.work) == set(timers.seconds)
    assert funnel.work_filtering >= 0
    pruned = pruned_by_filter(funnel)
    assert all(v >= 0 for v in pruned.values())
    assert sum(pruned.values()) == funnel.considered - funnel.searched
    assert funnel.searched_mc + funnel.searched_kvc == funnel.searched


class TestLedgerInvariants:
    @pytest.mark.parametrize("name", ["dblp", "WormNet", "CAroad"])
    def test_exact_sums_on_datasets(self, name):
        check_invariants(lazymc(load(name)))

    @pytest.mark.parametrize("label", sorted(CONFIGS))
    def test_exact_sums_across_subsolver_arms(self, label):
        result = lazymc(load("HS-CX"), CONFIGS[label])
        check_invariants(result)
        funnel = result.funnel
        if label == "default":
            # HS-CX is dense: neighborhoods that survive the funnel go to
            # the k-VC arm, so the funnel must show k-VC work.
            assert funnel.searched_kvc > 0
            assert funnel.work_kvc > 0
        if label == "no_kvc":
            assert funnel.searched_kvc == 0
        if label == "filter_rounds_0":
            # No degree-filter round ran, so neither stage refuted anything.
            pruned = pruned_by_filter(funnel)
            assert pruned["early_exit_filter"] == 0
            assert pruned["advance_filter"] == 0

    def test_budgeted_run_stays_exact(self):
        result = lazymc(load("WormNet"), LazyMCConfig(max_work=5000))
        assert result.timed_out
        check_invariants(result)

    @pytest.mark.parametrize("engine", ["sim", "seq", "process"])
    @pytest.mark.parametrize("name", ["WormNet", "HS-CX"])
    def test_systematic_work_is_funnel_work(self, name, engine):
        # Every unit of systematic work is done inside a NeighborSearch
        # task, lazy-graph builds included, on every engine.
        result = lazymc(load(name), LazyMCConfig(engine=engine, processes=2))
        assert result.timers.work["systematic"] == result.funnel.work_total

    @staticmethod
    def assert_trace_prunes_match_ledger(graph, config=None):
        rec = TraceRecorder()
        result = lazymc(graph, config, tracer=rec)
        summary = summarize_events(rec.all_events())
        funnel_prunes = {t: n for t, n in summary["prunes"].items()
                         if not t.endswith("_subsolve")}
        expected = {t: n for t, n in pruned_by_filter(result.funnel).items()
                    if n}
        assert funnel_prunes == expected

    def test_ledger_matches_trace_prune_counts_at_full_sampling(self):
        self.assert_trace_prunes_match_ledger(load("WormNet"))

    @pytest.mark.parametrize("rounds", range(4))
    def test_prune_tags_match_ledger_at_every_filter_rounds(self, rounds):
        # The first degree round is filter 2 (early_exit_filter), every
        # later round filter 3 (advance_filter), whatever the round count.
        self.assert_trace_prunes_match_ledger(
            load("HS-CX"), LazyMCConfig(filter_rounds=rounds))


class TestSubsolveSpans:
    @pytest.mark.parametrize("config, expected", [
        pytest.param(LazyMCConfig(), {"mc_subsolve": 6, "kvc_subsolve": 48},
                     id="sets"),
        pytest.param(LazyMCConfig(use_kvc=False), {"mc_subsolve": 54},
                     id="no_kvc"),
    ])
    def test_one_span_per_dispatched_neighborhood(self, config, expected):
        graph, _ = camouflaged_clique(80, 0.5, 10, seed=1)
        rec = TraceRecorder(sample_every=1)
        result = lazymc(graph, config, tracer=rec)
        spans = summarize_events(rec.all_events())["spans"]
        counts = {name: s["count"] for name, s in spans.items()
                  if name.endswith("_subsolve")}
        assert counts == expected
        assert counts.get("mc_subsolve", 0) == result.funnel.searched_mc
        assert counts.get("kvc_subsolve", 0) == result.funnel.searched_kvc


class TestSummarizeEvents:
    def test_summary_shape_from_live_solve(self):
        rec = TraceRecorder()
        result = lazymc(load("dblp"), tracer=rec)
        summary = summarize_events(rec.all_events())
        assert summary["complete"] is True
        assert summary["dropped"] == 0
        assert summary["final_vt"] == result.counters.work
        assert summary["events"] == len(rec.events)
        assert "phase:systematic" in summary["spans"]
        assert summary["spans"]["phase:systematic"]["count"] == 1
        # The incumbent staircase is strictly increasing and ends at omega.
        sizes = [size for _, size in summary["incumbent"]]
        assert sizes == sorted(set(sizes))
        assert sizes[-1] == result.omega

    def test_phase_span_work_matches_timers(self):
        rec = TraceRecorder()
        result = lazymc(load("dblp"), tracer=rec)
        summary = summarize_events(rec.all_events())
        for phase, work in result.timers.work.items():
            assert summary["spans"][f"phase:{phase}"]["work"] == work

    def test_empty_recorder_summary(self):
        rec = TraceRecorder(Counters())
        summary = summarize_events(rec.all_events())
        assert summary == {"events": 0, "dropped": 0, "complete": False,
                           "final_vt": 0, "spans": {}, "prunes": {},
                           "incumbent": []}
