"""The names perfbench's layer tracer wraps must stay on the solver's path.

``perfbench/tracing.py`` observes the filter funnel by replacing
``filtering.intersect_size_gt_bool``, ``filtering.intersect_size_gt_val``,
``LazyGraph.membership_set`` and ``LazyGraph.neighborhood_array`` while it
runs.  If the solver stops looking one of them up at call time (a kernel
inlined into the filter loop, or a local alias bound once), that layer
silently reads zero.  Counting wrappers in the same places must each see
calls, and must not change the solve.
"""

import dataclasses
import functools

from repro.core import filtering
from repro.core.lazygraph import LazyGraph
from repro.core.solver import LazyMC
from repro.datasets import load

WRAPPED = (
    (filtering, "intersect_size_gt_bool"),
    (filtering, "intersect_size_gt_val"),
    (LazyGraph, "membership_set"),
    (LazyGraph, "neighborhood_array"),
)


def _digest(result) -> tuple:
    schedule = result.schedule
    return (result.omega, sorted(result.clique), result.counters.as_dict(),
            dataclasses.asdict(result.funnel), schedule.makespan,
            schedule.total_work,
            [(t.task, t.start, t.finish, t.cost) for t in schedule.tasks])


def test_wrapped_names_are_called_and_change_nothing(monkeypatch):
    graph = load("orkut")
    plain = _digest(LazyMC().solve(graph))

    calls = {}
    for owner, name in WRAPPED:
        calls[name] = 0
        original = getattr(owner, name)

        def counted(*args, _fn=original, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, functools.wraps(original)(counted))

    assert _digest(LazyMC().solve(graph)) == plain
    assert all(count > 0 for count in calls.values()), calls
