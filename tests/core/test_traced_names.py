"""The names perfbench's layer tracer wraps must stay on the solver's path.

``perfbench/tracing.py`` observes the solver by replacing each
``(owner, attribute)`` of its ``SOLVER_LAYERS`` while it runs: the filter,
the intersection kernels, the lazy-graph accessors, the k-VC arm and its
per-node kernel, and both MC kernels.  If the solver stops looking one of
them up at call time (a kernel inlined into the filter loop, a local alias
bound once, or an alias import deleted), that layer silently reads zero.
Counting wrappers in the same places must each see calls in a solve that
reaches the layer, and must not change any solve.  The ``bits`` layer is
the exception: the bit kernel is a ``bench micro`` subject that no solve
reaches, so it must read zero.
"""

import dataclasses
import functools
import importlib.util
import sys
from pathlib import Path

from repro.core.config import LazyMCConfig
from repro.core.solver import LazyMC
from repro.datasets import load

PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"


def _perfbench(name: str):
    """perfbench's module ``name``, imported by path (it is no package)."""
    key = f"_perfbench_{name}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            key, PERFBENCH / f"{name}.py")
        module = sys.modules[key] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return sys.modules[key]


def _solves():
    """``(label, graph, config)`` per solve; together they reach every
    solver layer: orkut the filter funnel, a dimacs-synth draw both the
    direct MC arm and the k-VC arm."""
    dimacs = dict(_perfbench("workloads").WORKLOADS["dimacs-synth"].build(1))
    return [
        ("orkut", load("orkut"), LazyMCConfig()),
        ("gnp-n200-p0.2", dimacs["gnp-n200-p0.2"], LazyMCConfig()),
    ]


def _digest(result) -> tuple:
    schedule = result.schedule
    return (result.omega, sorted(result.clique), result.counters.as_dict(),
            dataclasses.asdict(result.funnel), schedule.makespan,
            schedule.total_work,
            [(t.task, t.start, t.finish, t.cost) for t in schedule.tasks])


def test_wrapped_names_are_called_and_change_nothing(monkeypatch):
    layers = _perfbench("tracing").SOLVER_LAYERS
    solves = _solves()
    plain = [_digest(LazyMC(config).solve(graph))
             for _, graph, config in solves]

    calls = {}
    for layer, owner, name in layers:
        calls[layer] = 0
        original = getattr(owner, name)

        def counted(*args, _fn=original, _layer=layer, **kwargs):
            calls[_layer] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, functools.wraps(original)(counted))

    for (label, graph, config), want in zip(solves, plain):
        assert _digest(LazyMC(config).solve(graph)) == want, label
    assert [layer for layer, count in calls.items() if count == 0] \
        == ["bits"], calls


def test_kernelize_called_once_per_branch_node(monkeypatch):
    """The ``kvc.kernelize`` layer wraps ``repro.vc.branch_bound.kernelize``;
    the search looks it up there once per branch node."""
    from repro.vc import branch_bound

    calls = []
    kernel = branch_bound.kernelize

    def counted(*args, **kwargs):
        calls.append(None)
        return kernel(*args, **kwargs)

    monkeypatch.setattr(branch_bound, "kernelize", counted)
    # Every searched neighbourhood of mouse goes to the k-VC arm, so
    # all of its branch nodes are k-VC nodes.
    result = LazyMC().solve(load("mouse"))
    assert result.counters.mc_subsolves == 0
    assert result.counters.kvc_subsolves > 0
    assert len(calls) == result.counters.branch_nodes > 0
