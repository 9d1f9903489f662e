"""Trace event schema: kinds, required fields, validation.

One trace is a JSON-lines stream: a ``trace_start`` header, any number of
body events, and a ``trace_end`` footer.  Every event carries ``vt`` — the
*virtual clock*, measured in counted work units (``Counters.work``) rather
than nanoseconds — which is what makes traces bit-reproducible across
machines: two runs of the same instance on the same code produce the same
event stream, byte for byte, because the virtual clock advances only when
counted work happens.  Wall-clock time rides along in an optional ``wall``
field that serializers strip by default (it is the one machine-dependent
field).

Event kinds
-----------

``trace_start``
    Header.  ``schema`` (int), ``clock`` (always ``"work"``), ``meta``
    (free-form dict: target, algo, config highlights).
``span_begin`` / ``span_end``
    A span covers a region of the search: a driver phase, a swept
    coreness level, a (sampled) neighborhood search, a sub-solve.  Both
    carry ``sid`` (span id, unique and increasing) and ``name``;
    ``span_begin`` carries ``parent`` (enclosing recorded span's sid, or
    ``None``).  Span *duration* is ``end.vt - begin.vt`` — work units.
``prune``
    A neighborhood (or sub-solve) refuted without/before branching;
    ``technique`` names the responsible mechanism (see ``TECHNIQUES``).
``incumbent``
    The incumbent clique grew; ``size`` is the new size.
``point``
    Generic instant event (e.g. the MC-vs-kVC ``dispatch`` decision).
``trace_end``
    Footer.  ``recorded``/``dropped`` event counts and ``complete``
    (``False`` for a mid-run flush, ``True`` once the solve finished).
"""

from __future__ import annotations

import json

from ..errors import TraceError

#: Schema version emitted in the header; bump on incompatible changes.
SCHEMA_VERSION = 1

#: Work-avoidance techniques a ``prune`` event may attribute itself to.
#: The names mirror the funnel stages of Alg. 8 plus the sub-solver arms:
#: ``lazy_filter`` (coreness-filtered candidate set too small, filter 1),
#: ``early_exit_filter`` (boolean early-exit degree round, filter 2),
#: ``advance_filter`` (exact-size kernel round, filter 3),
#: ``mc_subsolve`` / ``kvc_subsolve`` (the chosen sub-solver proved no
#: clique beats the incumbent).
TECHNIQUES = (
    "lazy_filter",
    "early_exit_filter",
    "advance_filter",
    "mc_subsolve",
    "kvc_subsolve",
)

#: Every event kind and the fields it must carry (beyond ``ev``).
REQUIRED_FIELDS = {
    "trace_start": ("schema", "clock"),
    "span_begin": ("sid", "name", "vt"),
    "span_end": ("sid", "name", "vt"),
    "prune": ("technique", "vt"),
    "incumbent": ("size", "vt"),
    "point": ("name", "vt"),
    "trace_end": ("recorded", "dropped", "vt", "complete"),
}


def validate_event(event: dict) -> None:
    """Check one decoded event against the schema; raise :class:`TraceError`."""
    if not isinstance(event, dict):
        raise TraceError(f"event must be a JSON object, got {type(event).__name__}")
    kind = event.get("ev")
    if kind not in REQUIRED_FIELDS:
        raise TraceError(f"unknown event kind {kind!r}; "
                         f"known: {', '.join(REQUIRED_FIELDS)}")
    for field in REQUIRED_FIELDS[kind]:
        if field not in event:
            raise TraceError(f"{kind} event missing required field {field!r}")
    if kind == "trace_start":
        if event["schema"] != SCHEMA_VERSION:
            raise TraceError(f"unsupported schema {event['schema']!r} "
                             f"(this build reads {SCHEMA_VERSION})")
        if event["clock"] != "work":
            raise TraceError(f"unsupported clock {event['clock']!r}")
    if kind == "prune" and event["technique"] not in TECHNIQUES:
        raise TraceError(f"unknown prune technique {event['technique']!r}")
    if "vt" in event:
        vt = event["vt"]
        if not isinstance(vt, int) or isinstance(vt, bool) or vt < 0:
            raise TraceError(f"vt must be a non-negative integer, got {vt!r}")


def validate_events(events: list[dict]) -> None:
    """Validate a full decoded stream: header, body, footer, monotone vt.

    A stream without a footer is rejected unless its header is the only
    line — a flushed-but-unfinished trace always carries a footer with
    ``complete: false``, so a missing footer means a torn write.
    """
    if not events:
        raise TraceError("empty trace")
    if events[0].get("ev") != "trace_start":
        raise TraceError("trace must begin with a trace_start header")
    if events[-1].get("ev") != "trace_end":
        raise TraceError("trace must end with a trace_end footer")
    last_vt = 0
    open_spans: dict[int, str] = {}
    for i, event in enumerate(events):
        validate_event(event)
        kind = event["ev"]
        if kind in ("trace_start",):
            if i != 0:
                raise TraceError("trace_start must be the first event")
            continue
        if kind == "trace_end" and i != len(events) - 1:
            raise TraceError("trace_end must be the last event")
        vt = event.get("vt", last_vt)
        if vt < last_vt:
            raise TraceError(f"virtual clock went backwards at event {i}: "
                             f"{vt} < {last_vt}")
        last_vt = vt
        if kind == "span_begin":
            if event["sid"] in open_spans:
                raise TraceError(f"span {event['sid']} opened twice")
            open_spans[event["sid"]] = event["name"]
        elif kind == "span_end":
            name = open_spans.pop(event["sid"], None)
            if name is None:
                raise TraceError(f"span_end for unopened span {event['sid']}")
            if name != event["name"]:
                raise TraceError(f"span {event['sid']} ended as "
                                 f"{event['name']!r}, began as {name!r}")
    # Open spans at the footer are legal only on an incomplete flush.
    if open_spans and events[-1].get("complete"):
        raise TraceError(f"complete trace left spans open: "
                         f"{sorted(open_spans)}")


def parse_jsonl(text: str) -> list[dict]:
    """Decode a JSON-lines trace into a list of events (no validation)."""
    events = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            events.append(json.loads(line))
        except json.JSONDecodeError as exc:
            raise TraceError(f"line {lineno} is not valid JSON: {exc}") from exc
    return events


def load_trace(path) -> list[dict]:
    """Read, parse and validate a trace file; returns the event list."""
    from pathlib import Path

    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise TraceError(f"cannot read trace {path}: {exc}") from exc
    events = parse_jsonl(text)
    validate_events(events)
    return events
