"""Tests for the bench harness, the markdown renderer and the committed
report."""

import importlib.util
import time
from pathlib import Path

import pytest

from repro.bench.harness import BenchConfig, geometric_mean, median, repeat_timed
from repro.bench.reporting import render_table

ROOT = Path(__file__).resolve().parents[2]


class TestBenchConfig:
    def test_default_dataset_list_is_registry(self):
        from repro.datasets import names

        assert BenchConfig().dataset_list() == names()

    def test_subset(self):
        cfg = BenchConfig(datasets=("CAroad", "dblp"))
        assert cfg.dataset_list() == ["CAroad", "dblp"]


class TestRepeatTimed:
    def test_repeats_and_stats(self):
        calls = []

        def fn():
            calls.append(1)
            time.sleep(0.001)
            return "v"

        r = repeat_timed(fn, repeats=3)
        assert len(calls) == 3
        assert r.value == "v"
        assert r.mean_seconds > 0
        assert not r.timed_out

    def test_timeout_short_circuits(self):
        class R:
            timed_out = True

        calls = []

        def fn():
            calls.append(1)
            return R()

        r = repeat_timed(fn, repeats=5, treat_as_timeout=lambda v: v.timed_out)
        assert len(calls) == 1
        assert r.timed_out

    def test_single_repeat_no_stdev(self):
        r = repeat_timed(lambda: 1, repeats=1)
        assert r.stdev_pct == 0.0


class TestStats:
    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        assert geometric_mean([]) == 0.0
        assert geometric_mean([2.0, 0.0]) == pytest.approx(2.0)  # zeros dropped

    def test_median(self):
        assert median([3.0, 1.0, 2.0]) == 2.0
        assert median([1.0, 2.0]) == 1.5
        assert median([]) == 0.0


class TestRendering:
    def test_render_table_alignment(self):
        out = render_table(["name", "value"], [["a", 1.5], ["bb", None]])
        assert out.split("\n") == [
            "| name | value |",
            "|------|------:|",
            "| a    | 1.500 |",
            "| bb   |  T.O. |",
        ]

    def test_render_table_title(self):
        out = render_table(["x"], [[1]], title="My Table")
        assert out.split("\n") == ["## My Table", "", "| x |", "|--:|",
                                    "| 1 |"]

    def test_large_and_tiny_floats(self):
        out = render_table(["v", "flag"], [[12345.6, True], [0.00001, False]])
        assert out.split("\n")[2:] == ["|  12,346 | yes  |",
                                        "| 1.0e-05 | no   |"]

    def test_markdown(self):
        # Empty cells (a summary row) do not stop a numeric column
        # right-aligning, and a text cell makes the column left-aligned.
        out = render_table(["a", "b"], [[1, "x"], ["", 2.0]], precision=1)
        assert out.split("\n") == ["| a | b   |", "|--:|-----|",
                                    "| 1 | x   |", "|   | 2.0 |"]


class TestArtifactRegistry:
    def test_all_ten_artifacts_registered(self):
        from repro.bench import ARTIFACTS

        assert set(ARTIFACTS) == {"table1", "table2", "table3",
                                  "fig1", "fig2", "fig3", "fig4", "fig5",
                                  "fig6", "fig7", "extras", "micro",
                                  "engines", "service"}
        for mod in ARTIFACTS.values():
            assert hasattr(mod, "run")
            assert hasattr(mod, "render")


_spec = importlib.util.spec_from_file_location(
    "generate_experiments", ROOT / "scripts" / "generate_experiments.py")
generate_experiments = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(generate_experiments)


class TestCommittedReport:
    def test_report_is_the_render_of_the_exports(self):
        # EXPERIMENTS.md is a pure function of experiments/*.json: a
        # re-export that is not re-rendered (or a hand edit) fails here.
        assert (generate_experiments.render_report(ROOT / "experiments")
                == (ROOT / "EXPERIMENTS.md").read_text())

    def test_every_paper_artifact_is_exported(self):
        paper = {f"table{i}" for i in (1, 2, 3)} | {f"fig{i}" for i in range(1, 8)}
        assert set(generate_experiments.CONFIGS) == paper
        assert {p.stem for p in (ROOT / "experiments").glob("*.json")} == paper
