"""Smoke tests: the example scripts run and print what they promise.

Only the two fastest examples run here, with their output checked; the
CI `tests` job runs every script in `examples/` and fails on a non-zero
exit.
"""

import subprocess
import sys
from pathlib import Path


EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, timeout: int = 120) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "omega = 4" in out
    assert "planted clique recovered = True" in out


def test_web_crawl_zero_gap():
    out = run_example("web_crawl_zero_gap.py", timeout=240)
    assert "omega = 40" in out
    assert "clique-core gap = 0" in out
    assert "neighborhoods systematically searched: 0" in out


def test_all_examples_exist_and_have_docstrings():
    scripts = sorted(EXAMPLES.glob("*.py"))
    assert len(scripts) >= 5
    for script in scripts:
        text = script.read_text()
        assert text.startswith("#!/usr/bin/env python"), script.name
        assert '"""' in text, script.name
        assert "def main()" in text, script.name
