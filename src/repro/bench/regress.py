"""Regression comparison of exported bench artifacts.

``lazymc bench <artifact> --output dir/`` writes self-describing JSON; this
module diffs two such exports — a baseline and a candidate — and reports
per-row drift on the numeric columns, plus any numeric column a baseline
row has and the candidate's row lacks.  Intended for CI: export once on a
known-good revision, re-export on a change, fail when work counts move
beyond tolerance or stop being emitted (wall-clock fields are ignored by
default because they are machine-dependent).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

# Wall-clock-ish keys: machine-dependent, excluded unless asked for.
# ``ndet_`` marks counters that are *nondeterministic by construction*
# (real-parallel publication timing, e.g. the engines artifact's process
# rows) rather than time-valued; they are excluded for the same reason.
_TIME_KEYS = ("t_", "dev_", "wall", "seconds", "time", "ns_",
              "generation", "ndet_")


@dataclass
class Drift:
    """One numeric field that moved beyond tolerance."""

    row_key: str
    column: str
    baseline: float
    candidate: float

    @property
    def ratio(self) -> float:
        """candidate / baseline (inf when the baseline is zero)."""
        if self.baseline == 0:
            return float("inf") if self.candidate else 1.0
        return self.candidate / self.baseline

    def __str__(self) -> str:
        return (f"{self.row_key}.{self.column}: {self.baseline} -> "
                f"{self.candidate} ({self.ratio:.3f}x)")


@dataclass
class RegressionReport:
    """Outcome of one artifact comparison."""

    artifact: str
    drifts: list[Drift] = field(default_factory=list)
    missing_rows: list[str] = field(default_factory=list)
    new_rows: list[str] = field(default_factory=list)
    #: ``row.column`` of each compared column the candidate row lacks.
    missing_columns: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        """True when nothing moved beyond tolerance or went missing."""
        return not (self.drifts or self.missing_rows or self.new_rows
                    or self.missing_columns)

    def __str__(self) -> str:
        if self.clean:
            return f"{self.artifact}: clean"
        lines = [f"{self.artifact}: {len(self.drifts)} drifts"]
        lines += [f"  {d}" for d in self.drifts]
        if self.missing_rows:
            lines.append(f"  rows missing: {', '.join(self.missing_rows)}")
        if self.new_rows:
            lines.append(f"  rows new: {', '.join(self.new_rows)}")
        if self.missing_columns:
            lines.append(
                f"  columns missing: {', '.join(self.missing_columns)}")
        return "\n".join(lines)


def _is_time_key(key: str) -> bool:
    return any(key.startswith(t) or t in key for t in _TIME_KEYS)


def _row_key(row: dict, index: int) -> str:
    for k in ("graph", "kernel", "name"):
        if k in row:
            extra = f"@{row['threads']}" if "threads" in row else ""
            return f"{row[k]}{extra}"
    return f"row{index}"


def _flatten_rows(rows) -> dict:
    """Key every row for pairing between baseline and candidate.

    Artifacts export either a flat ``list[dict]`` or sections
    (``dict`` of lists, e.g. micro's representations / early_exit /
    arm_race).  Sectioned rows get a ``section:`` key prefix and
    repeated keys inside a section a stable ``#index`` suffix, so rows
    pair positionally-deterministically instead of silently shadowing
    each other.

    ``trace`` sections are skipped entirely: trace capture is an
    observability artifact, not a benchmark result, so a baseline
    exported before (or after) tracing existed must still compare clean
    against the other side.
    """
    if isinstance(rows, dict):
        triples = [(f"{section}:", row, i)
                   for section, section_rows in rows.items()
                   if section != "trace"
                   for i, row in enumerate(
                       section_rows if isinstance(section_rows, list)
                       else [section_rows])]
    else:
        triples = [("", row, i) for i, row in enumerate(rows)]
    out: dict = {}
    for prefix, row, i in triples:
        key = f"{prefix}{_row_key(row, i)}"
        if key in out:
            key = f"{key}#{i}"
        out[key] = row
    return out


def _numeric_items(row: dict, include_time: bool, prefix: str = ""):
    for key, value in row.items():
        full = f"{prefix}{key}"
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            if include_time or not _is_time_key(full):
                yield full, float(value)
        elif isinstance(value, dict):
            yield from _numeric_items(value, include_time, prefix=f"{full}.")


def compare(baseline_path: str | Path, candidate_path: str | Path,
            rel_tolerance: float = 0.01,
            include_time: bool = False) -> RegressionReport:
    """Diff two exported artifact files.

    Numeric fields whose relative change exceeds ``rel_tolerance`` are
    reported as drifts, and compared fields of a baseline row that its
    candidate row lacks as missing columns.  Deterministic work counters
    should be *exactly* stable across runs on the same code, so the
    default tolerance mainly absorbs float formatting.
    """
    base = json.loads(Path(baseline_path).read_text())
    cand = json.loads(Path(candidate_path).read_text())
    if base.get("artifact") != cand.get("artifact"):
        raise ValueError(
            f"artifact mismatch: {base.get('artifact')} vs {cand.get('artifact')}")
    report = RegressionReport(artifact=base["artifact"])

    base_rows = _flatten_rows(base["rows"])
    cand_rows = _flatten_rows(cand["rows"])
    report.missing_rows = sorted(set(base_rows) - set(cand_rows))
    report.new_rows = sorted(set(cand_rows) - set(base_rows))

    for key in sorted(set(base_rows) & set(cand_rows)):
        b = dict(_numeric_items(base_rows[key], include_time))
        c = dict(_numeric_items(cand_rows[key], include_time))
        report.missing_columns += [f"{key}.{column}"
                                   for column in sorted(set(b) - set(c))]
        for column in sorted(set(b) & set(c)):
            bv, cv = b[column], c[column]
            scale = max(abs(bv), abs(cv), 1e-12)
            if abs(bv - cv) / scale > rel_tolerance:
                report.drifts.append(Drift(key, column, bv, cv))
    return report


def compare_directories(baseline_dir: str | Path, candidate_dir: str | Path,
                        rel_tolerance: float = 0.01) -> list[RegressionReport]:
    """Compare every artifact JSON present in both directories."""
    baseline_dir, candidate_dir = Path(baseline_dir), Path(candidate_dir)
    reports = []
    for base_file in sorted(baseline_dir.glob("*.json")):
        cand_file = candidate_dir / base_file.name
        if cand_file.exists():
            reports.append(compare(base_file, cand_file, rel_tolerance))
    return reports
