"""Per-layer spans recorded from outside the solver.

:class:`LayerTracer` replaces public entry points of the solver's modules
with timing wrappers while it is active, and puts the originals back when
it exits.  The solver gains no option and no code: it is observed only
through the names it already looks up at call time.

Hot leaves (the intersection kernels and the lazy-graph accessors run
about a million times per registry pass) are not stored one span each.
Every call is folded into an aggregate keyed by ``(layer, parent)``: call
count, inclusive seconds and the seconds its child spans covered, so a
layer's self time is its inclusive time minus its children's.  Everything
stays in memory; the caller writes it out when the benchmark ends.
"""

from __future__ import annotations

import dataclasses
import functools
import time

from repro.core import filtering, systematic
from repro.core.lazygraph import LazyGraph
from repro.mc.bitkernel import BitMCSubgraphSolver
from repro.mc.branch_bound import MCSubgraphSolver
from repro.parallel import engine as engines
from repro.vc import branch_bound as vc_branch_bound

ROOT = "solve"

#: ``(layer, owner, attribute)``: each layer's span wraps ``owner.attribute``.
#: Module-level names are wrapped where the caller looks them up (e.g.
#: ``systematic.neighbor_search``, not ``filtering.neighbor_search``).
SOLVER_LAYERS = (
    ("filter", systematic, "neighbor_search"),
    ("intersect.bool", filtering, "intersect_size_gt_bool"),
    ("intersect.val", filtering, "intersect_size_gt_val"),
    ("lazygraph.membership", LazyGraph, "membership_set"),
    ("lazygraph.array", LazyGraph, "neighborhood_array"),
    ("kvc", filtering, "max_clique_via_vc"),
    ("kvc.kernelize", vc_branch_bound, "kernelize"),
    ("mc", MCSubgraphSolver, "solve"),
    ("bits", BitMCSubgraphSolver, "solve"),
)

ENGINE_CLASSES = (engines.SimulatedEngine, engines.SequentialEngine,
                  engines.ProcessEngine)

#: Sub-solver arms whose spans are subtracted from ``filter.self_s``.
SUBSOLVER_LAYERS = ("kvc", "mc", "bits")


class LayerTracer:
    """Context manager installing the layer wrappers.

    ``engine_only`` wraps just the engines' ``parfor`` and its body: on
    the process engine the solver layers run in worker processes, where
    the parent cannot observe them.
    """

    def __init__(self, engine_only: bool = False):
        self.engine_only = engine_only
        #: ``(layer, parent) -> [calls, seconds, child_seconds]``.
        self.spans: dict[tuple[str, str], list] = {}
        self._stack = [ROOT]
        self._child = [0.0]
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "LayerTracer":
        if not self.engine_only:
            for layer, owner, attr in SOLVER_LAYERS:
                self._patch(owner, attr,
                            self._timed(layer, getattr(owner, attr)))
        for cls in ENGINE_CLASSES:
            self._patch(cls, "parfor", self._timed_parfor(cls.parfor))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, own = self._saved.pop()
            if own is None:
                delattr(owner, attr)  # the original was inherited
            else:
                setattr(owner, attr, own)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._saved.append((owner, attr, vars(owner).get(attr)))
        setattr(owner, attr, wrapper)

    def _timed(self, layer: str, fn):
        spans, stack, child = self.spans, self._stack, self._child
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            stack.append(layer)
            child.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                inner = child.pop()
                child[-1] += dt
                rec = spans.get((layer, parent))
                if rec is None:
                    rec = spans[(layer, parent)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += inner

        return wrapper

    def _timed_parfor(self, parfor):
        timed_parfor = self._timed("engine.parfor", parfor)
        timed = self._timed

        @functools.wraps(parfor)
        def wrapper(engine, tasks, body, *args, **kwargs):
            # Only the inline form runs in this process; the process
            # engine ships ``body.worker`` untouched.
            if isinstance(body, engines.EngineBody):
                body = dataclasses.replace(
                    body, inline=timed("engine.body", body.inline))
            else:
                body = timed("engine.body", body)
            return timed_parfor(engine, tasks, body, *args, **kwargs)

        return wrapper

    def take(self) -> dict[tuple[str, str], list]:
        """Return the spans recorded since the last ``take`` and reset."""
        spans = {key: list(rec) for key, rec in self.spans.items()}
        self.spans.clear()
        return spans


def layer_totals(spans: dict[tuple[str, str], list]) -> dict[str, float]:
    """The wrapped-layer metrics of one solve's spans."""
    calls: dict[str, int] = {}
    secs: dict[str, float] = {}
    for (layer, _parent), (n, s, _inner) in spans.items():
        calls[layer] = calls.get(layer, 0) + n
        secs[layer] = secs.get(layer, 0.0) + s

    def under(layers, parent: str) -> float:
        return sum(rec[1] for (layer, p), rec in spans.items()
                   if layer in layers and p == parent)

    out = {}
    for layer in [name for name, _, _ in SOLVER_LAYERS] + ["engine.parfor"]:
        out[f"{layer}.calls"] = calls.get(layer, 0)
        out[f"{layer}.s"] = secs.get(layer, 0.0)
    out["filter.self_s"] = out["filter.s"] - under(SUBSOLVER_LAYERS, "filter")
    out["engine.parfor.self_s"] = (out["engine.parfor.s"]
                                   - under(("engine.body",), "engine.parfor"))
    return out
