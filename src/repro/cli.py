"""Command-line interface.

Usage::

    lazymc solve <dataset-or-file> [--threads N] [--timeout S] [--algo NAME]
                 [--engine sim|seq|process] [--processes N]
                 [--json] [--verify] [--trace PATH]
    lazymc trace summarize|export|validate <trace.jsonl>
    lazymc bench <artifact|all> [--datasets a,b,c] [--repeats N] [--timeout S]
    lazymc datasets
    lazymc characterize <dataset-or-file>
    lazymc serve [--socket PATH | --port N] [--workers N] [--cache-size N]
                 [--trace-dir DIR]
    lazymc query <dataset-or-file> [--socket PATH | --port N] [--trace-id ID]

``solve`` accepts either a registry dataset name or a path to an edge-list /
DIMACS / METIS file (dispatch by extension: .col/.clq -> DIMACS,
.metis/.graph -> METIS, anything else -> edge list).  ``serve`` starts the
long-running query service (:mod:`repro.service`); ``query`` sends one
solve request to it.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from pathlib import Path

from .core.config import LazyMCConfig
from .datasets import load, load_target, names
from .errors import GraphLoadError
from .graph.csr import CSRGraph
from .parallel.engine import ENGINE_NAMES
from .service.jobs import ALGORITHMS

#: Where ``serve``/``query`` meet when neither --socket nor --port is given.
DEFAULT_SOCKET = str(Path(tempfile.gettempdir()) / "lazymc.sock")

#: The solver knobs as flags: flag -> (LazyMCConfig field, argparse
#: options).  Every flag defaults to ``None``, "not given": the knob then
#: keeps its LazyMCConfig default (``solve``) or the server's (``query``).
KNOB_FLAGS = {
    "--threads": ("threads", {
        "type": int, "help": "simulated worker threads (default 1)"}),
    "--max-work": ("max_work", {
        "type": int,
        "help": "deterministic work budget (scanned-element units)"}),
    "--timeout": ("max_seconds", {
        "type": float, "help": "wall-clock budget (seconds)"}),
    "--engine": ("engine", {
        "choices": ENGINE_NAMES,
        "help": "execution engine: deterministic simulated scheduler "
                "(default), the simulation at --threads 1, or real "
                "multiprocessing (lazymc and pmc)"}),
    "--processes": ("processes", {
        "type": int, "help": "worker processes for --engine process "
                             "(default 0 = auto-size from the CPU count)"}),
}


def _add_knob_flags(parser, description: str, *flags: str) -> None:
    group = parser.add_argument_group("solver knobs", description)
    for flag in flags:
        dest, options = KNOB_FLAGS[flag]
        group.add_argument(flag, dest=dest, default=None, **options)


def _knob_overrides(args) -> dict:
    """The knob flags given on the command line, keyed by config field."""
    return {dest: getattr(args, dest) for dest, _ in KNOB_FLAGS.values()
            if getattr(args, dest, None) is not None}


def _solver_config(args) -> LazyMCConfig:
    try:
        return LazyMCConfig(**_knob_overrides(args))
    except ValueError as exc:
        raise SystemExit(f"lazymc: {exc}") from exc


def _load_graph(target: str) -> CSRGraph:
    try:
        return load_target(target)
    except GraphLoadError as exc:
        raise SystemExit(str(exc))


def _print_record(record: dict, as_json: bool) -> int:
    """Print one solve record (``solve`` and ``query``); returns the exit
    code: 0 when the solve ran, 1 when it failed."""
    import json

    if as_json:
        print(json.dumps(record, indent=2))
    elif record.get("ok"):
        print(f"omega      = {record['omega']}  exact = {record['exact']}")
        print(f"clique     = {record['clique']}")
        if record["algo"] == "lazymc":
            print(f"degeneracy = {record['degeneracy']}  gap = {record['gap']}")
            print(f"heuristics = degree {record['heuristic_degree']}, "
                  f"coreness {record['heuristic_coreness']}")
        print(f"work       = {record['work']}  "
              f"wall = {record['wall_seconds']:.3f}s  "
              f"timed_out = {record['timed_out']}")
        if "cached" in record:
            print(f"cached     = {record['cached']}")
        if record.get("trace_path"):
            print(f"trace      = {record['trace_path']}")
    else:
        print(f"error      = {record.get('error_type')}: {record.get('error')}")
    return 0 if record.get("ok") else 1


def _cmd_solve(args) -> int:
    """``solve``: one inline run of the service's job path.

    ``--faults`` arms a seeded fault plan, the reproduction path for
    service incidents: the same spec and seed re-create the same
    crash/hang/drop, inline, without a pool.  A failed solve is an
    ``ok: false`` record and exit code 1, never a traceback.
    """
    from .errors import InjectedFault
    from .faults import FaultPlan
    from .service.worker import JobEnv, run_job

    config = _solver_config(args)
    if args.trace and args.algo != "lazymc":
        raise SystemExit("--trace supports --algo lazymc only")
    plan = None
    if args.faults:
        try:
            plan = FaultPlan.parse(args.faults, seed=args.fault_seed)
        except ValueError as exc:
            raise SystemExit(f"lazymc: {exc}") from exc
    graph = _load_graph(args.target)
    env = JobEnv(fault_plan=plan.for_job("cli", 0) if plan else None,
                 trace_path=args.trace, trace_sample=args.trace_sample)
    try:
        record = run_job(graph, args.algo, config, env)
    except InjectedFault as exc:
        record = {"ok": False, "error_type": "InjectedFault", "error": str(exc)}
    summary = record.get("trace_summary")
    if summary is not None:
        print(f"trace: {args.trace} ({_trace_counts(summary)})",
              file=sys.stderr)
    code = _print_record(record, args.json)
    if args.verify and record.get("ok"):
        valid = (len(record["clique"]) == record["omega"]
                 and graph.is_clique(record["clique"]))
        print(f"verify = {'ok' if valid else 'FAILED'}", file=sys.stderr)
        if not valid:
            return 1
    return code


def _cmd_serve(args) -> int:
    from .faults import FaultPlan
    from .service import CliqueServer, CliqueService, ServiceConfig

    plan = FaultPlan.parse(args.faults, seed=args.fault_seed) \
        if args.faults else None
    try:
        config = ServiceConfig(
            workers=args.workers,
            cache_capacity=args.cache_size,
            defaults=_knob_overrides(args),
            max_queue_depth=args.max_queue,
            supervise=args.supervise,
            max_retries=args.max_retries,
            job_deadline=args.job_deadline,
            fault_plan=plan,
            trace_dir=args.trace_dir,
            trace_sample=args.trace_sample,
        )
    except ValueError as exc:
        raise SystemExit(f"lazymc serve: {exc}") from exc
    service = CliqueService(config)
    if args.port is not None:
        server = CliqueServer(service, host=args.host, port=args.port,
                              fault_plan=plan)
    else:
        server = CliqueServer(service, socket_path=args.socket,
                              fault_plan=plan)
    supervised = " supervised," if args.supervise else ""
    # The server has bound and listened by now, so the banner is the
    # readiness signal that scripts and tests wait on: flush it at once.
    print(f"lazymc service listening on {server.address} "
          f"({supervised} {service.pool.mode} pool, {args.workers} workers)",
          flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive only
        pass
    finally:
        server.shutdown()
        server.close()
        service.shutdown()
    return 0


def _cmd_query(args) -> int:
    import json

    from .errors import ProtocolError
    from .service import ServiceClient

    if not args.metrics and not args.shutdown and args.target is None:
        raise SystemExit("query needs a target (or --metrics / --shutdown)")
    kwargs = {"socket_path": args.socket} if args.port is None else \
        {"host": args.host, "port": args.port}
    where = args.socket if args.port is None else f"{args.host}:{args.port}"
    try:
        client = ServiceClient(**kwargs)
    except OSError as exc:
        raise SystemExit(
            f"cannot reach a lazymc service at {where}: {exc} "
            f"(is `lazymc serve` running?)") from exc
    try:
        with client:
            if args.metrics:
                response = client.metrics(args.metrics)
                if args.metrics == "prometheus":
                    print(response.get("text", ""), end="")
                else:
                    print(json.dumps(response.get("metrics", {}), indent=2))
                return 0 if response.get("ok") else 1
            if args.shutdown:
                response = client.shutdown_server()
                print(json.dumps(response))
                return 0 if response.get("ok") else 1
            response = client.solve(args.target, algo=args.algo,
                                    config=_knob_overrides(args),
                                    use_cache=not args.no_cache,
                                    trace_id=args.trace_id)
    except ProtocolError as exc:
        # A dropped/torn response (e.g. the server's drop:proto fault, or
        # a mid-request restart): a clean, retryable error — not a
        # traceback — because the client owns the retry.
        raise SystemExit(f"query failed: {exc} (retry the request)") from exc
    return _print_record(response, args.json)


def _trace_counts(summary: dict) -> str:
    """The body-event and dropped counts of a trace summary, as ``solve
    --trace`` and ``trace validate`` both print them."""
    return f"{summary['events']} events, {summary['dropped']} dropped"


def _cmd_trace(args) -> int:
    """``lazymc trace summarize|export|validate``: offline trace tooling.

    Operates on the JSON-lines streams written by ``solve --trace`` and
    the service's trace directory; never re-runs a solve.
    """
    import json

    from .errors import TraceError
    from .trace import load_trace, summarize_events

    try:
        events = load_trace(args.path)
    except (OSError, TraceError) as exc:
        raise SystemExit(f"cannot read trace {args.path}: {exc}") from exc

    if args.trace_command == "validate":
        summary = summarize_events(events)
        print(f"{args.path}: valid ({_trace_counts(summary)}, "
              f"complete={summary['complete']})")
        return 0
    if args.trace_command == "summarize":
        print(json.dumps(summarize_events(events), indent=2, sort_keys=True))
        return 0
    # export
    from .trace import write_chrome, write_collapsed

    if args.format == "chrome":
        default = f"{args.path}.chrome.json"
        path = write_chrome(events, args.output or default)
    else:
        default = f"{args.path}.collapsed.txt"
        path = write_collapsed(events, args.output or default)
    print(f"wrote {path}")
    return 0


def _cmd_bench(args) -> int:
    from .bench import ARTIFACTS
    from .bench.harness import BenchConfig

    config = BenchConfig(
        datasets=tuple(args.datasets.split(",")) if args.datasets else (),
        repeats=args.repeats,
        timeout_seconds=args.timeout,
        threads=args.threads,
        engine=args.engine,
    )
    targets = list(ARTIFACTS) if args.artifact == "all" else [args.artifact]
    for target in targets:
        if target not in ARTIFACTS:
            raise SystemExit(f"unknown artifact {target!r}; "
                             f"known: {', '.join(ARTIFACTS)}, all")
        if args.output:
            from .bench.export import export_artifact

            path = export_artifact(target, args.output, config)
            print(f"wrote {path}")
        else:
            print(ARTIFACTS[target].render(ARTIFACTS[target].run(config)))
            print()
    return 0


def _cmd_datasets(args) -> int:
    from .datasets import spec

    if args.export:
        from .graph.io import write_edge_list

        out = Path(args.export)
        out.mkdir(parents=True, exist_ok=True)
        for name in names():
            path = out / f"{name}.txt"
            write_edge_list(load(name), path)
            print(f"wrote {path}")
        return 0
    for name in names():
        s = spec(name)
        if args.profile:
            from .graph.metrics import profile

            print(f"{name:14s} {s.family:10s} {profile(load(name))}")
        else:
            print(f"{name:14s} {s.family:10s} {s.description}")
    return 0


def _cmd_regress(args) -> int:
    from .bench.regress import compare, compare_directories

    base, cand = Path(args.baseline), Path(args.candidate)
    if base.is_dir():
        reports = compare_directories(base, cand, args.tolerance)
    else:
        reports = [compare(base, cand, args.tolerance)]
    dirty = 0
    for report in reports:
        print(report)
        dirty += 0 if report.clean else 1
    return 1 if dirty else 0


def _cmd_characterize(args) -> int:
    from . import LazyMCConfig, lazymc
    from .graph import coreness, may_must_report

    graph = _load_graph(args.target)
    core = coreness(graph)
    result = lazymc(graph, LazyMCConfig(max_seconds=args.timeout))
    rep = may_must_report(graph, result.omega, core=core)
    print(f"n = {graph.n}  m = {graph.m}  max_degree = {graph.max_degree()}")
    print(f"degeneracy = {rep.degeneracy}  omega = {result.omega}  gap = {rep.gap}")
    print(f"must: {rep.must_vertices} vertices ({100*rep.must_vertex_fraction:.1f}%), "
          f"{rep.must_edges} edges ({100*rep.must_edge_fraction:.1f}%)")
    print(f"may:  {rep.may_vertices} vertices ({100*rep.may_vertex_fraction:.1f}%), "
          f"{rep.may_edges} edges ({100*rep.may_edge_fraction:.1f}%)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for the ``lazymc`` CLI."""
    parser = argparse.ArgumentParser(
        prog="lazymc",
        description="LazyMC maximum clique reproduction (IPDPS 2025)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one graph")
    p.add_argument("target", help="dataset name or graph file")
    p.add_argument("--algo", default="lazymc", choices=ALGORITHMS)
    _add_knob_flags(p, "unset knobs keep their LazyMCConfig default",
                    *KNOB_FLAGS)
    p.add_argument("--json", action="store_true",
                   help="emit a machine-readable record (any algorithm)")
    p.add_argument("--trace", default=None, metavar="PATH",
                   help="write the deterministic search-tree trace "
                        "(JSON lines, virtual work clock) to PATH "
                        "(lazymc only; see docs/observability.md)")
    p.add_argument("--trace-sample", type=int, default=1, metavar="N",
                   help="record every Nth per-neighborhood trace event "
                        "(default 1 = all)")
    p.add_argument("--verify", action="store_true",
                   help="check the clique is valid; non-zero exit on failure")
    p.add_argument("--faults", default=None, metavar="SPEC",
                   help="seeded fault-injection plan, e.g. "
                        "'crash:worker:p=0.2; hang:solve:after_work=1e5' "
                        "(reproduces service failures inline)")
    p.add_argument("--fault-seed", type=int, default=0,
                   help="seed for the --faults plan (default 0)")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("serve", help="run the long-lived query service")
    p.add_argument("--socket", default=DEFAULT_SOCKET,
                   help=f"Unix socket path (default: {DEFAULT_SOCKET})")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=None,
                   help="serve TCP on this port instead of the Unix socket")
    p.add_argument("--workers", type=int, default=0,
                   help="worker processes (0 = solve inline)")
    p.add_argument("--cache-size", type=int, default=128,
                   help="result-cache capacity (entries)")
    p.add_argument("--max-queue", type=int, default=256,
                   help="admission queue depth before load shedding")
    p.add_argument("--supervise", action="store_true",
                   help="supervised pool: replace crashed workers, kill "
                        "hung jobs, retry with checkpoint resume")
    p.add_argument("--max-retries", type=int, default=2,
                   help="attempts beyond the first per job (supervised)")
    p.add_argument("--job-deadline", type=float, default=None,
                   help="per-job wall-clock deadline enforced by the "
                        "watchdog (seconds, supervised)")
    p.add_argument("--faults", default=None, metavar="SPEC",
                   help="inject seeded faults into every job and the "
                        "transport (chaos testing; see docs/robustness.md)")
    p.add_argument("--fault-seed", type=int, default=0,
                   help="seed for the --faults plan (default 0)")
    p.add_argument("--trace-dir", default=None, metavar="DIR",
                   help="capture per-job traces here for jobs submitted "
                        "with a trace id (query --trace-id)")
    p.add_argument("--trace-sample", type=int, default=1, metavar="N",
                   help="trace sampling stride for captured jobs")
    _add_knob_flags(p, "service-wide defaults for jobs that leave the knob "
                       "unset", "--max-work", "--timeout", "--engine",
                    "--processes")
    p.set_defaults(fn=_cmd_serve)

    p = sub.add_parser("query", help="query a running lazymc service")
    p.add_argument("target", nargs="?", default=None,
                   help="dataset name or graph file (server-side path)")
    p.add_argument("--socket", default=DEFAULT_SOCKET)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=None)
    p.add_argument("--algo", default="lazymc", choices=ALGORITHMS)
    _add_knob_flags(p, "unset knobs take the server's default", *KNOB_FLAGS)
    p.add_argument("--no-cache", action="store_true",
                   help="bypass the server-side result cache")
    p.add_argument("--trace-id", default=None, metavar="ID",
                   help="capture this job's trace server-side under ID "
                        "(needs `serve --trace-dir`)")
    p.add_argument("--json", action="store_true")
    p.add_argument("--metrics", nargs="?", const="json",
                   choices=["json", "prometheus"], default=None,
                   help="fetch service metrics instead of solving")
    p.add_argument("--shutdown", action="store_true",
                   help="stop the server instead of solving")
    p.set_defaults(fn=_cmd_query)

    p = sub.add_parser("trace", help="inspect or convert a recorded trace")
    tsub = p.add_subparsers(dest="trace_command", required=True)
    ts = tsub.add_parser("summarize",
                         help="span/prune/incumbent summary as JSON")
    ts.add_argument("path", help="trace JSON-lines file")
    ts.set_defaults(fn=_cmd_trace)
    te = tsub.add_parser("export",
                         help="convert to Chrome trace JSON or a collapsed "
                              "flamegraph stack file")
    te.add_argument("path", help="trace JSON-lines file")
    te.add_argument("--format", default="chrome", choices=["chrome", "flame"])
    te.add_argument("--output", default=None,
                    help="output file (default: derived from the input)")
    te.set_defaults(fn=_cmd_trace)
    tv = tsub.add_parser("validate",
                         help="check schema, clock monotonicity and span "
                              "pairing; non-zero exit on a malformed stream")
    tv.add_argument("path", help="trace JSON-lines file")
    tv.set_defaults(fn=_cmd_trace)

    p = sub.add_parser("bench", help="regenerate a table/figure")
    p.add_argument("artifact", help="table1..3, fig1..7, or all")
    p.add_argument("--datasets", default=None, help="comma-separated subset")
    p.add_argument("--repeats", type=int, default=3)
    p.add_argument("--timeout", type=float, default=60.0)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--engine", default="sim",
                   choices=["sim", "seq", "process"],
                   help="execution engine for artifacts that honor it "
                        "(fig7, engines)")
    p.add_argument("--output", default=None,
                   help="write JSON to this directory instead of printing")
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("datasets", help="list registry datasets")
    p.add_argument("--export", default=None,
                   help="write every analogue as an edge list into this dir")
    p.add_argument("--profile", action="store_true",
                   help="print structural metrics per dataset (slow)")
    p.set_defaults(fn=_cmd_datasets)

    p = sub.add_parser("regress", help="diff two exported bench artifacts")
    p.add_argument("baseline", help="baseline JSON file or directory")
    p.add_argument("candidate", help="candidate JSON file or directory")
    p.add_argument("--tolerance", type=float, default=0.01)
    p.set_defaults(fn=_cmd_regress)

    p = sub.add_parser("characterize", help="graph statistics + may/must report")
    p.add_argument("target")
    p.add_argument("--timeout", type=float, default=60.0)
    p.set_defaults(fn=_cmd_characterize)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
