"""Tests for JSON export of bench artifacts."""

import json

import pytest

from repro.bench.export import export_artifact
from repro.bench.harness import BenchConfig

SMALL = BenchConfig(datasets=("CAroad",), repeats=1, timeout_seconds=20.0)


class TestExport:
    def test_single_artifact(self, tmp_path):
        path = export_artifact("table3", tmp_path, SMALL)
        assert path.name == "table3.json"
        record = json.loads(path.read_text())
        assert record["artifact"] == "table3"
        assert record["config"]["datasets"] == ["CAroad"]
        assert len(record["rows"]) == 1
        assert record["rows"][0]["graph"] == "CAroad"

    def test_unknown_artifact(self, tmp_path):
        with pytest.raises(KeyError):
            export_artifact("nope", tmp_path, SMALL)

    def test_export_selected(self, tmp_path):
        from repro.cli import main

        for name in ("fig1", "fig2"):
            assert main(["bench", name, "--datasets", "CAroad",
                         "--repeats", "1", "--output", str(tmp_path)]) == 0
        paths = sorted(tmp_path.iterdir())
        assert [p.name for p in paths] == ["fig1.json", "fig2.json"]
        for p in paths:
            json.loads(p.read_text())  # valid JSON

    def test_numpy_coercion(self, tmp_path):
        # fig7 rows carry numpy-derived numbers; export must serialize.
        path = export_artifact("fig7", tmp_path,
                               BenchConfig(datasets=("CAroad",), repeats=1,
                                           timeout_seconds=20.0))
        record = json.loads(path.read_text())
        assert all(isinstance(r["work"], int) for r in record["rows"])

    def test_cli_output_flag(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["bench", "table3", "--datasets", "CAroad",
                     "--repeats", "1", "--output", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "wrote" in out
        assert (tmp_path / "table3.json").exists()
