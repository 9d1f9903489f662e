"""Assertions over the micro-benchmark artifact (moved out of
benchmarks/ so they run in the main suite; the timing rounds stay there)."""

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
        out = micro.render(micro.run())
        assert "membership probe cost" in out
        assert "early-exit scan savings" in out
