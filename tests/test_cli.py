"""Tests for the command-line interface."""

import pytest

from repro.cli import main, build_parser


class TestSolve:
    def test_solve_dataset(self, capsys):
        assert main(["solve", "CAroad"]) == 0
        out = capsys.readouterr().out
        assert "omega      = 4" in out

    def test_solve_baseline_algo(self, capsys):
        assert main(["solve", "CAroad", "--algo", "mcbrb"]) == 0
        out = capsys.readouterr().out
        assert "omega      = 4" in out

    def test_solve_edge_list_file(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n0 2\n")
        assert main(["solve", str(path)]) == 0
        assert "omega      = 3" in capsys.readouterr().out

    def test_solve_dimacs_file(self, tmp_path, capsys):
        path = tmp_path / "g.col"
        path.write_text("p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n")
        assert main(["solve", str(path)]) == 0
        assert "omega      = 3" in capsys.readouterr().out

    def test_unknown_target_exits(self):
        with pytest.raises(SystemExit):
            main(["solve", "definitely-not-a-dataset"])


class TestSolveFlags:
    def test_json_for_baseline_algo(self, capsys):
        import json

        assert main(["solve", "CAroad", "--algo", "mcbrb", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["algo"] == "mcbrb"
        assert record["omega"] == 4
        assert len(record["clique"]) == 4
        assert record["timed_out"] is False
        assert record["wall_seconds"] >= 0.0

    def test_json_for_lazymc_keeps_uniform_keys(self, capsys):
        import json

        assert main(["solve", "CAroad", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        for key in ("algo", "omega", "clique", "wall_seconds", "timed_out"):
            assert key in record

    def test_verify_ok_exit_zero(self, capsys):
        assert main(["solve", "CAroad", "--verify"]) == 0
        assert "verify = ok" in capsys.readouterr().err

    def test_verify_baseline_ok(self, capsys):
        assert main(["solve", "CAroad", "--algo", "pmc", "--verify"]) == 0
        assert "verify = ok" in capsys.readouterr().err

    def test_verify_failure_nonzero_exit(self, capsys, monkeypatch):
        import repro.service.worker as worker_mod

        def bogus(graph, algo, config=None, env=None):
            return {"algo": algo, "n": graph.n, "m": graph.m, "omega": 4,
                    "clique": [0, 1, 2, 3], "wall_seconds": 0.0,
                    "timed_out": False, "exact": True, "work": 0}

        monkeypatch.setattr(worker_mod, "solve_graph", bogus)
        assert main(["solve", "CAroad", "--algo", "mcbrb", "--verify"]) == 1
        assert "verify = FAILED" in capsys.readouterr().err

    def test_solver_exception_is_a_failed_record(self, capsys, monkeypatch):
        import json

        import repro.service.worker as worker_mod

        def broken(graph, algo, config=None, env=None):
            raise RuntimeError("solver bug")

        monkeypatch.setattr(worker_mod, "solve_graph", broken)
        assert main(["solve", "CAroad", "--json"]) == 1
        record = json.loads(capsys.readouterr().out)
        assert record["ok"] is False
        assert record["error_type"] == "RuntimeError"

    def test_bad_fault_spec_exits_with_message(self):
        with pytest.raises(SystemExit, match="fault spec"):
            main(["solve", "CAroad", "--faults", "nonsense"])

    def test_max_work_budget_degrades(self, capsys):
        assert main(["solve", "WormNet", "--max-work", "200"]) == 0
        assert "timed_out = True" in capsys.readouterr().out


class TestOneSchema:
    """``solve --json``, ``run_job`` and ``JobResult`` are one record."""

    #: Keys that hold wall-clock time, which differs between two runs.
    WALL = ("wall_seconds", "phases_seconds")

    @pytest.mark.parametrize("target, algo", [("WormNet", "lazymc"),
                                              ("CAroad", "mcbrb")])
    def test_solve_json_is_the_job_record(self, target, algo, capsys):
        import json
        from dataclasses import fields

        from repro import LazyMCConfig
        from repro.datasets import load
        from repro.service.jobs import JobResult
        from repro.service.worker import JobEnv, run_job

        record = run_job(load(target), algo, LazyMCConfig(), JobEnv())
        assert record["ok"] is True
        assert set(record) <= {f.name for f in fields(JobResult)}
        round_trip = JobResult.from_dict(record).to_dict()
        assert {k: round_trip[k] for k in record} == record

        assert main(["solve", target, "--algo", algo, "--json"]) == 0
        printed = json.loads(capsys.readouterr().out)
        assert set(printed) == set(record)
        assert set(printed["phases_seconds"]) == set(record["phases_seconds"])
        for key in self.WALL:
            del printed[key], record[key]
        assert printed == json.loads(json.dumps(record))


class TestTraceFlags:
    def test_solve_trace_writes_valid_stream(self, tmp_path, capsys):
        from repro.trace import load_trace, summarize_events

        path = tmp_path / "worm.trace.jsonl"
        assert main(["solve", "WormNet", "--trace", str(path)]) == 0
        assert "trace:" in capsys.readouterr().err
        summary = summarize_events(load_trace(path))
        assert summary["complete"] is True
        assert "phase:systematic" in summary["spans"]

    def test_trace_rejected_for_baselines(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["solve", "CAroad", "--algo", "pmc",
                  "--trace", str(tmp_path / "t.jsonl")])

    def test_json_funnel_section_lazymc(self, capsys):
        import json

        assert main(["solve", "WormNet", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        funnel = record["funnel"]
        assert funnel["considered"] > 0
        assert "per_mille" in funnel

    def test_json_funnel_section_zeroed_for_baselines(self, capsys):
        import json

        assert main(["solve", "CAroad", "--algo", "mcbrb", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["funnel"]["considered"] == 0
        assert "per_mille" in record["funnel"]


class TestTraceCommand:
    @pytest.fixture()
    def trace_file(self, tmp_path):
        # WormNet's systematic sweep actually prunes; dblp's heuristic
        # closes the instance and would leave an (empty-funnel) trace.
        path = tmp_path / "t.trace.jsonl"
        assert main(["solve", "WormNet", "--trace", str(path)]) == 0
        return path

    def test_validate(self, trace_file, capsys):
        assert main(["trace", "validate", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "valid" in out and "complete=True" in out

    def test_solve_and_validate_print_one_count(self, tmp_path, capsys):
        """One file, one count: ``solve --trace`` and ``trace validate``
        both report the body events between header and footer."""
        import re

        from repro.graph import generators
        from repro.graph.io import write_edge_list
        from repro.trace import load_trace

        graph_path = tmp_path / "gnp150.txt"
        write_edge_list(generators.gnp_random(150, 0.3, seed=1), graph_path)
        path = tmp_path / "gnp150.trace.jsonl"
        assert main(["solve", str(graph_path), "--trace", str(path)]) == 0
        solved = re.search(r"\((\d+) events, (\d+) dropped\)",
                           capsys.readouterr().err)
        assert main(["trace", "validate", str(path)]) == 0
        validated = re.search(r"\((\d+) events, (\d+) dropped,",
                              capsys.readouterr().out)
        assert solved.groups() == validated.groups()
        assert int(solved.group(1)) == len(load_trace(path)) - 2

    def test_summarize_is_json(self, trace_file, capsys):
        import json

        assert main(["trace", "summarize", str(trace_file)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["complete"] is True
        assert summary["prunes"]

    def test_export_chrome_default_name(self, trace_file, capsys):
        import json

        assert main(["trace", "export", str(trace_file)]) == 0
        exported = trace_file.parent / (trace_file.name + ".chrome.json")
        assert "wrote" in capsys.readouterr().out
        assert "traceEvents" in json.loads(exported.read_text())

    def test_export_flame_to_output(self, trace_file, tmp_path, capsys):
        out = tmp_path / "flame.txt"
        assert main(["trace", "export", str(trace_file),
                     "--format", "flame", "--output", str(out)]) == 0
        first = out.read_text().splitlines()[0]
        stack, weight = first.rsplit(" ", 1)
        assert int(weight) > 0

    def test_missing_file_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["trace", "validate", str(tmp_path / "absent.jsonl")])

    def test_corrupt_file_exits(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{}\n")
        with pytest.raises(SystemExit):
            main(["trace", "summarize", str(bad)])


class TestServeQuery:
    def test_round_trip_via_cli(self, tmp_path, capsys):
        import json
        import threading
        import time

        sock = str(tmp_path / "cli.sock")
        thread = threading.Thread(
            target=main, args=(["serve", "--socket", sock],), daemon=True)
        thread.start()
        # The socket file appears at bind(), before listen(): wait for the
        # banner, which serve prints only once the server is listening.
        banner = ""
        deadline = time.monotonic() + 10
        while "listening on" not in banner:
            assert time.monotonic() < deadline, \
                f"serve printed no readiness banner in 10 s: {banner!r}"
            time.sleep(0.02)
            banner += capsys.readouterr().out

        def json_out():
            return json.loads(capsys.readouterr().out)

        assert main(["query", "CAroad", "--socket", sock, "--json"]) == 0
        first = json_out()
        assert first["omega"] == 4 and not first["cached"]
        assert main(["query", "CAroad", "--socket", sock, "--json"]) == 0
        assert json_out()["cached"]
        assert main(["query", "--metrics", "--socket", sock]) == 0
        metrics = json_out()
        assert metrics["counters"]["cache_hits"] == 1
        assert main(["query", "--shutdown", "--socket", sock]) == 0
        capsys.readouterr()
        thread.join(timeout=10)
        assert not thread.is_alive()

    def test_query_without_target_exits(self):
        with pytest.raises(SystemExit):
            main(["query", "--socket", "/tmp/definitely-absent.sock"])


class TestOtherCommands:
    def test_datasets_listing(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "CAroad" in out
        assert "human-2" in out
        assert len(out.strip().split("\n")) == 28

    def test_characterize(self, capsys):
        assert main(["characterize", "CAroad"]) == 0
        out = capsys.readouterr().out
        assert "degeneracy = 3" in out
        assert "must:" in out

    def test_bench_single_artifact(self, capsys):
        assert main(["bench", "table3", "--datasets", "CAroad",
                     "--repeats", "1", "--timeout", "20"]) == 0
        out = capsys.readouterr().out
        assert "Table III" in out

    def test_bench_unknown_artifact(self):
        with pytest.raises(SystemExit):
            main(["bench", "table99"])

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestDatasetFlags:
    def test_export(self, tmp_path, capsys):
        from repro.cli import main

        # Exporting all 28 graphs is slow; patch names to a subset.
        import repro.cli as cli_mod

        orig = cli_mod.names
        cli_mod.names = lambda: ["CAroad"]
        try:
            assert main(["datasets", "--export", str(tmp_path)]) == 0
        finally:
            cli_mod.names = orig
        assert (tmp_path / "CAroad.txt").exists()
        from repro.graph.io import read_edge_list
        from repro.datasets import load

        assert read_edge_list(tmp_path / "CAroad.txt") == load("CAroad")


class TestRegressCommand:
    def test_clean_comparison_exit_zero(self, tmp_path, capsys):
        from repro.bench.export import export_artifact
        from repro.bench.harness import BenchConfig
        from repro.cli import main

        cfg = BenchConfig(datasets=("CAroad",), repeats=1, timeout_seconds=20.0)
        a = tmp_path / "a"
        b = tmp_path / "b"
        export_artifact("fig1", a, cfg)
        export_artifact("fig1", b, cfg)
        assert main(["regress", str(a), str(b)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_drift_exit_one(self, tmp_path, capsys):
        import json

        from repro.bench.export import export_artifact
        from repro.bench.harness import BenchConfig
        from repro.cli import main

        cfg = BenchConfig(datasets=("CAroad",), repeats=1, timeout_seconds=20.0)
        export_artifact("fig1", tmp_path, cfg)
        rec = json.loads((tmp_path / "fig1.json").read_text())
        rec["rows"][0]["gap"] = 99
        cand = tmp_path / "cand.json"
        cand.write_text(json.dumps(rec))
        assert main(["regress", str(tmp_path / "fig1.json"), str(cand)]) == 1
