"""Tests for the work-attribution ledger and trace summaries.

The ledger's claim is exactness: spent buckets sum to ``Counters.work``,
the systematic split sums to the systematic phase, avoided buckets sum to
``considered - searched``.  These are the issue's acceptance invariants.
"""

import pytest

from repro import LazyMCConfig, lazymc
from repro.datasets import load
from repro.graph.generators import camouflaged_clique
from repro.instrument import Counters
from repro.trace import TraceRecorder, summarize_events, work_attribution

CONFIGS = {
    "default": LazyMCConfig(),
    "no_kvc": LazyMCConfig(use_kvc=False),
    "bits": LazyMCConfig(kernel_backend="bits"),
    **{f"filter_rounds_{r}": LazyMCConfig(filter_rounds=r) for r in range(4)},
}


def check_invariants(result):
    ledger = work_attribution(result)
    d = ledger.as_dict()
    assert sum(d["work_by_phase"].values()) == result.counters.work
    assert d["total_work"] == result.counters.work
    assert sum(d["systematic"].values()) == \
        d["work_by_phase"].get("systematic", 0)
    assert sum(d["pruned_by_technique"].values()) == \
        d["considered"] - d["searched"]
    assert d["avoided_neighborhoods"] == d["considered"] - d["searched"]
    assert all(v >= 0 for v in d["pruned_by_technique"].values())
    assert d["searched_mc"] + d["searched_kvc"] == d["searched"]
    return ledger


class TestLedgerInvariants:
    @pytest.mark.parametrize("name", ["dblp", "WormNet"])
    def test_exact_sums_on_datasets(self, name):
        check_invariants(lazymc(load(name)))

    @pytest.mark.parametrize("label", sorted(CONFIGS))
    def test_exact_sums_across_subsolver_arms(self, label):
        result = lazymc(load("HS-CX"), CONFIGS[label])
        ledger = check_invariants(result)
        if label == "default":
            # HS-CX is dense: neighborhoods that survive the funnel go to
            # the k-VC arm, so the ledger must show k-VC work.
            assert ledger.searched_kvc > 0
            assert ledger.systematic["kvc_subsolve"] > 0
        if label == "no_kvc":
            assert ledger.searched_kvc == 0
        if label == "filter_rounds_0":
            # No degree-filter round ran, so neither stage refuted anything.
            assert ledger.pruned_by_technique["early_exit_filter"] == 0
            assert ledger.pruned_by_technique["advance_filter"] == 0

    def test_budgeted_run_stays_exact(self):
        result = lazymc(load("WormNet"), LazyMCConfig(max_work=5000))
        assert result.timed_out
        check_invariants(result)

    @staticmethod
    def assert_trace_prunes_match_ledger(graph, config=None):
        rec = TraceRecorder()
        result = lazymc(graph, config, tracer=rec)
        ledger = work_attribution(result)
        summary = summarize_events(rec.all_events())
        funnel_prunes = {t: n for t, n in summary["prunes"].items()
                         if not t.endswith("_subsolve")}
        expected = {t: n for t, n in ledger.pruned_by_technique.items() if n}
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
    @pytest.mark.parametrize("backend, expected", [
        pytest.param("sets", {"mc_subsolve": 6, "kvc_subsolve": 48},
                     id="sets"),
        pytest.param("bits", {"bits_subsolve": 54}, id="bits"),
    ])
    def test_one_span_per_dispatched_neighborhood(self, backend, expected):
        graph, _ = camouflaged_clique(80, 0.5, 10, seed=1)
        rec = TraceRecorder(sample_every=1)
        result = lazymc(graph, LazyMCConfig(kernel_backend=backend),
                        tracer=rec)
        spans = summarize_events(rec.all_events())["spans"]
        counts = {name: s["count"] for name, s in spans.items()
                  if name.endswith("_subsolve")}
        assert counts == expected
        mc_arm = "bits_subsolve" if backend == "bits" else "mc_subsolve"
        assert counts.get(mc_arm, 0) == result.funnel.searched_mc
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
