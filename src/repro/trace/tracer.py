"""Tracer: zero-overhead no-op default, deterministic sampling recorder.

The paper's argument is an accounting of work avoided; this module makes
that accounting *observable per event* instead of only as end-of-run
totals.  Two implementations share one interface:

* :class:`Tracer` — the no-op default.  Every method is a ``pass``; the
  solver call sites additionally guard their hot paths behind
  ``tracer.enabled`` so the disabled case costs one attribute read per
  neighborhood, nothing per element.  The default path leaves
  :class:`~repro.instrument.Counters` bit-identical because the tracer
  never touches counters at all — it only *reads* them for its clock.
* :class:`TraceRecorder` — records a bounded, optionally sampled stream
  of events (see :mod:`repro.trace.events`) timestamped on the **virtual
  clock**: ``vt = Counters.work`` at emission time.  Two runs of the same
  instance produce byte-identical virtual-clock streams because the clock
  advances only with counted work, never with wall time.  Wall time is
  captured alongside every event but is stripped by the serializer unless
  explicitly requested — it is the single machine-dependent field.

The simulated scheduler's parfor tasks charge the run's main counters
directly (a task's cost is the work it adds), so inside a task the clock
already reads the run's work so far, and the stream stays monotone and
deterministic across task boundaries.
"""

from __future__ import annotations

import json
import time

from ..checkpoint import _write_atomic
from ..instrument import Counters
from .events import SCHEMA_VERSION


class _NullSpan:
    """Shared do-nothing span/context handle for the no-op tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass

    def end(self, **attrs) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Tracer:
    """No-op tracer: the default everywhere a tracer may be threaded.

    Subclasses override everything; call sites may consult ``enabled``
    to skip even the argument marshalling on hot paths.
    """

    enabled = False

    def bind(self, counters: Counters) -> None:
        """Attach the run's main counters as the virtual clock source."""

    def span(self, name: str, sampled: bool = False, **attrs) -> _NullSpan:
        """Open a span; use as a context manager (or call ``.end()``)."""
        return _NULL_SPAN

    def prune(self, technique: str, **attrs) -> None:
        """Record a work-avoidance event attributed to ``technique``."""

    def incumbent(self, size: int, **attrs) -> None:
        """Record an incumbent improvement to ``size``."""

    def point(self, name: str, **attrs) -> None:
        """Record a generic instant event."""

    def finish(self) -> None:
        """Mark the trace complete (footer gets ``complete: true``)."""

    def __repr__(self) -> str:
        # Stable, address-free: signatures that default to NULL_TRACER
        # render identically on every run (docs/api.md is diffed in CI).
        return f"{type(self).__name__}()"


#: Module-level no-op singleton; identity-comparable and allocation-free.
NULL_TRACER = Tracer()


class _Span:
    """Recorded-span handle; pops the tracer's stack exactly once."""

    __slots__ = ("_tracer", "name", "sid", "_attrs", "_closed")

    def __init__(self, tracer: "TraceRecorder", name: str, sid: int | None):
        self._tracer = tracer
        self.name = name
        self.sid = sid  # None when sampled out or dropped by the cap
        self._attrs: dict | None = None
        self._closed = False

    def __enter__(self) -> "_Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.end()

    def end(self, **attrs) -> None:
        """Close the span; extra ``attrs`` land on the span_end event."""
        if self._closed:
            return
        self._closed = True
        self._tracer._end_span(self, attrs or self._attrs)


class TraceRecorder(Tracer):
    """Bounded, sampled, deterministic event recorder.

    ``sample_every=N`` records every Nth *sampled-class* emission (spans
    opened with ``sampled=True`` and ``prune`` events, the per-neighborhood
    hot class); structural spans, dispatch points and incumbent events are
    always recorded.  ``max_events`` bounds memory: once reached, new
    events are counted in ``dropped`` instead of stored — except span_end
    events whose span_begin was recorded, so every recorded span closes.
    """

    enabled = True

    def __init__(self, counters: Counters | None = None, *,
                 sample_every: int = 1, max_events: int = 200_000,
                 meta: dict | None = None):
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        if max_events < 1:
            raise ValueError("max_events must be >= 1")
        self.sample_every = sample_every
        self.max_events = max_events
        self.meta: dict = dict(meta) if meta else {}
        self.events: list[dict] = []
        self.dropped = 0
        self.complete = False
        self._main = counters
        self._next_sid = 1
        self._sample_count = 0
        self._stack: list[int | None] = []

    # -- clock --------------------------------------------------------------------

    @property
    def vt(self) -> int:
        """Current virtual time in work units (monotone, deterministic)."""
        return self._main.work if self._main is not None else 0

    def bind(self, counters: Counters) -> None:
        """Attach the run's main counters as the virtual clock source."""
        self._main = counters

    def set_meta(self, **kv) -> None:
        """Attach header metadata (target name, algo, config highlights)."""
        self.meta.update(kv)

    # -- recording ----------------------------------------------------------------

    def _sampled_in(self) -> bool:
        self._sample_count += 1
        return (self._sample_count - 1) % self.sample_every == 0

    def _record(self, event: dict, force: bool = False) -> bool:
        if len(self.events) >= self.max_events and not force:
            self.dropped += 1
            return False
        event["wall"] = time.perf_counter()
        self.events.append(event)
        return True

    def span(self, name: str, sampled: bool = False, **attrs) -> _Span:
        """Open a span; ``sampled=True`` subjects it to the sampling gate."""
        if sampled and not self._sampled_in():
            self._stack.append(None)
            return _Span(self, name, None)
        sid = self._next_sid
        event = {"ev": "span_begin", "sid": sid, "name": name, "vt": self.vt,
                 "parent": self._parent()}
        if attrs:
            event["attrs"] = attrs
        if self._record(event):
            self._next_sid += 1
            self._stack.append(sid)
            return _Span(self, name, sid)
        self._stack.append(None)
        return _Span(self, name, None)

    def _parent(self) -> int | None:
        for sid in reversed(self._stack):
            if sid is not None:
                return sid
        return None

    def _end_span(self, span: _Span, attrs: dict | None) -> None:
        if self._stack:
            self._stack.pop()
        if span.sid is None:
            return
        event = {"ev": "span_end", "sid": span.sid, "name": span.name,
                 "vt": self.vt}
        if attrs:
            event["attrs"] = attrs
        # Forced: a recorded span must close even once the cap is hit,
        # otherwise truncation would read as unbounded spans.
        self._record(event, force=True)

    def prune(self, technique: str, **attrs) -> None:
        """Record a sampled work-avoidance instant tagged ``technique``."""
        if not self._sampled_in():
            return
        event = {"ev": "prune", "technique": technique, "vt": self.vt}
        if attrs:
            event["attrs"] = attrs
        self._record(event)

    def incumbent(self, size: int, **attrs) -> None:
        """Record an incumbent improvement (always, never sampled out)."""
        event = {"ev": "incumbent", "size": int(size), "vt": self.vt}
        if attrs:
            event["attrs"] = attrs
        self._record(event)

    def point(self, name: str, **attrs) -> None:
        """Record a generic instant event (always, never sampled out)."""
        event = {"ev": "point", "name": name, "vt": self.vt}
        if attrs:
            event["attrs"] = attrs
        self._record(event)

    def finish(self) -> None:
        """Mark the trace complete; the footer reports ``complete: true``."""
        self.complete = True

    # -- serialization ------------------------------------------------------------

    def header(self) -> dict:
        """The ``trace_start`` event (synthesized, never stored)."""
        return {"ev": "trace_start", "schema": SCHEMA_VERSION,
                "clock": "work", "meta": dict(self.meta)}

    def footer(self) -> dict:
        """The ``trace_end`` event reflecting the current state."""
        return {"ev": "trace_end", "recorded": len(self.events),
                "dropped": self.dropped, "vt": self.vt,
                "complete": self.complete}

    def all_events(self, include_wall: bool = False) -> list[dict]:
        """Header + body + footer as plain dicts (JSON-ready)."""
        body = self.events if include_wall else \
            [{k: v for k, v in e.items() if k != "wall"} for e in self.events]
        return [self.header(), *body, self.footer()]

    def to_jsonl(self, include_wall: bool = False) -> str:
        """The JSON-lines stream.

        With the default ``include_wall=False`` the output is a pure
        virtual-clock stream: byte-identical across re-runs of the same
        instance on the same code (the acceptance property).  ``True``
        appends the wall-clock field to every body event for human
        latency reading; such streams are *not* reproducible.
        """
        return "\n".join(
            json.dumps(e, sort_keys=True, separators=(",", ":"))
            for e in self.all_events(include_wall)) + "\n"

    def write(self, path, include_wall: bool = False) -> str:
        """Atomically write the stream to ``path`` (temp + rename).

        Safe to call repeatedly — each call rewrites the whole file, so a
        mid-run flush (e.g. on checkpoint) always leaves a valid,
        footer-terminated stream on disk even if the process dies right
        after.  Returns the path written.
        """
        return _write_atomic(path, self.to_jsonl(include_wall).encode())

