"""Tests for the artifact regression-diff tool."""

import json

import pytest

from repro.bench.export import export_artifact
from repro.bench.harness import BenchConfig
from repro.bench.regress import compare, compare_directories

SMALL = BenchConfig(datasets=("CAroad",), repeats=1, timeout_seconds=20.0)


@pytest.fixture(scope="module")
def exported(tmp_path_factory):
    d = tmp_path_factory.mktemp("baseline")
    export_artifact("table3", d, SMALL)
    export_artifact("fig1", d, SMALL)
    return d


class TestCompare:
    def test_identical_runs_are_clean(self, exported, tmp_path):
        """Determinism end-to-end: a re-export matches exactly."""
        export_artifact("table3", tmp_path, SMALL)
        report = compare(exported / "table3.json", tmp_path / "table3.json")
        assert report.clean
        assert "clean" in str(report)

    def test_detects_numeric_drift(self, exported, tmp_path):
        record = json.loads((exported / "table3.json").read_text())
        record["rows"][0]["coreness"] = 999.0
        (tmp_path / "table3.json").write_text(json.dumps(record))
        report = compare(exported / "table3.json", tmp_path / "table3.json")
        assert not report.clean
        assert any(d.column == "coreness" for d in report.drifts)
        assert "999" in str(report)

    def test_detects_row_changes(self, exported, tmp_path):
        record = json.loads((exported / "table3.json").read_text())
        record["rows"][0]["graph"] = "renamed"
        (tmp_path / "table3.json").write_text(json.dumps(record))
        report = compare(exported / "table3.json", tmp_path / "table3.json")
        assert report.missing_rows == ["CAroad"]
        assert report.new_rows == ["renamed"]

    def test_detects_dropped_columns(self, exported, tmp_path):
        """A counter the candidate stops emitting is not clean; a dropped
        time column is ignored unless time is compared."""
        record = json.loads((exported / "table3.json").read_text())
        record["rows"][0]["t_fake"] = 1.0
        base = tmp_path / "base.json"
        base.write_text(json.dumps(record))
        del record["rows"][0]["coreness"]
        del record["rows"][0]["t_fake"]
        cand = tmp_path / "cand.json"
        cand.write_text(json.dumps(record))
        report = compare(base, cand)
        assert report.missing_columns == ["CAroad.coreness"]
        assert not report.drifts
        assert not report.clean
        assert "columns missing: CAroad.coreness" in str(report)
        assert compare(base, cand, include_time=True).missing_columns == [
            "CAroad.coreness", "CAroad.t_fake"]

    def test_artifact_mismatch_rejected(self, exported):
        with pytest.raises(ValueError):
            compare(exported / "table3.json", exported / "fig1.json")

    def test_time_fields_ignored_by_default(self, exported, tmp_path):
        record = json.loads((exported / "fig1.json").read_text())
        # fig1 rows have no time fields; synthesize one.
        record["rows"][0]["t_fake"] = 123.0
        base = tmp_path / "a.json"
        base.write_text(json.dumps(record))
        record2 = json.loads(base.read_text())
        record2["rows"][0]["t_fake"] = 456.0
        cand = tmp_path / "b.json"
        cand.write_text(json.dumps(record2))
        assert compare(base, cand).clean
        assert not compare(base, cand, include_time=True).clean

    def test_compare_directories(self, exported, tmp_path):
        export_artifact("table3", tmp_path, SMALL)
        export_artifact("fig1", tmp_path, SMALL)
        reports = compare_directories(exported, tmp_path)
        assert len(reports) == 2
        assert all(r.clean for r in reports)
