"""Assertions over the micro-benchmark artifact (moved out of
benchmarks/ so they run in the main suite; the timing rounds stay there)."""

import pytest

from repro.bench import micro


class TestMicroArtifact:
    def test_representations_report(self):
        rows = micro.run_representations(sizes=(32,), overlaps=(0.5,),
                                         repeats=3)
        assert len(rows) == 1
        r = rows[0]
        assert all(r[f"ns_{k}"] > 0
                   for k in ("hopscotch", "sorted", "pyset"))

    def test_early_exit_report_shape(self):
        rows = micro.run_early_exit_benefit(n=64)
        # The val kernel saves only on the false side; the bool kernel's
        # second exit also saves on the true side (§IV-B).
        val_true_side = [r for r in rows if r["kernel"] == "size_gt_val"
                         and r["actual_over_theta"] > 1.1]
        bool_true_side = [r for r in rows if r["kernel"] == "size_gt_bool"
                          and r["actual_over_theta"] > 1.1]
        assert all(r["saving"] == 0 for r in val_true_side)
        assert any(r["saving"] > 0.1 for r in bool_true_side)
        false_side = [r for r in rows if r["actual_over_theta"] < 0.9]
        assert all(r["saving"] > 0 for r in false_side)

    def test_render(self):
        # The three sections of ``bench micro`` from reduced inputs; the
        # full race runs against BENCH_3.json in CI.  The race raises if
        # the arms disagree or miss a dispatched neighborhood.
        race = micro.run_arm_race(inputs=("HS-CX",))
        assert sum(r["count"] for r in race) == 34    # HS-CX funnel.searched
        out = micro.render({
            "representations": micro.run_representations(
                sizes=(32,), overlaps=(0.5,), repeats=3),
            "early_exit": micro.run_early_exit_benefit(n=64),
            "arm_race": race,
        })
        assert "membership probe cost" in out
        assert "early-exit scan savings" in out
        assert "arm race on recorded neighborhoods" in out

    def test_arm_race_raises_when_arms_disagree(self, monkeypatch):
        # Every HS-CX neighborhood refutes its bound; an arm claiming a
        # clique beyond it must stop the race.
        class AlwaysFinds:
            def __init__(self, counters=None):
                pass

            def solve(self, adj, bound):
                return list(range(bound + 1))

        monkeypatch.setattr(micro, "MCSubgraphSolver", AlwaysFinds)
        with pytest.raises(RuntimeError, match="arms disagree"):
            micro.run_arm_race(inputs=("HS-CX",))

    def test_recording_restores_the_extraction(self):
        from repro.core import filtering
        from repro.datasets import load

        extract = filtering._induced_masks
        dispatched, result = micro.record_dispatched(load("HS-CX"))
        assert filtering._induced_masks is extract
        assert len(dispatched) == result.funnel.searched
        assert all(bound >= 0 and len(masks) > bound
                   for masks, bound in dispatched)
