"""Trace exporters: Chrome trace-event JSON, collapsed-stack flamegraphs
and a JSON summary.

Both exporters key on the **virtual clock** (work units), never wall time,
so exported artifacts are as reproducible as the trace itself:

* :func:`to_chrome` emits the Chrome trace-event format (the JSON array
  flavor) loadable in Perfetto / ``chrome://tracing``.  Spans become
  complete ("X") events with ``ts``/``dur`` in work units (the viewer
  displays them as microseconds — read "1 us" as "1 work unit"); prunes
  and dispatch points become instant ("i") events; incumbent growth is a
  counter ("C") track.
* :func:`to_collapsed` emits the ``semicolon;separated;stack weight``
  lines consumed by flamegraph.pl / speedscope / inferno, weighted by
  *self* work — a span's exclusive work units, excluding recorded child
  spans — so the flame widths sum to traced work without double counting.

Both accept the decoded event list (:func:`repro.trace.events.load_trace`)
or a live :class:`~repro.trace.tracer.TraceRecorder`'s ``all_events()``.
Unclosed spans (possible in a mid-run flush) are closed at the footer's
virtual time so partial traces still export cleanly.
"""

from __future__ import annotations

import json

from ..errors import TraceError


def _body(events: list[dict]) -> tuple[list[dict], int]:
    """Split off header/footer; returns (body, final_vt)."""
    if not events:
        raise TraceError("empty trace")
    body = [e for e in events if e.get("ev") not in ("trace_start", "trace_end")]
    final_vt = 0
    for e in reversed(events):
        if "vt" in e:
            final_vt = e["vt"]
            break
    return body, final_vt


def spans_of(events: list[dict]) -> list[dict]:
    """Pair span_begin/span_end into records.

    Each record: ``{"name", "sid", "parent", "begin", "end", "attrs"}``
    with ``begin``/``end`` in work units.  Spans left open by a partial
    trace are closed at the final observed virtual time.
    """
    body, final_vt = _body(events)
    open_spans: dict[int, dict] = {}
    spans: list[dict] = []
    for e in body:
        if e["ev"] == "span_begin":
            rec = {"name": e["name"], "sid": e["sid"],
                   "parent": e.get("parent"), "begin": e["vt"],
                   "end": None, "attrs": dict(e.get("attrs", {}))}
            open_spans[e["sid"]] = rec
            spans.append(rec)
        elif e["ev"] == "span_end":
            rec = open_spans.pop(e["sid"], None)
            if rec is not None:
                rec["end"] = e["vt"]
                rec["attrs"].update(e.get("attrs", {}))
    for rec in open_spans.values():
        rec["end"] = final_vt
    return spans


def summarize_events(events: list[dict]) -> dict:
    """Aggregate a decoded event stream into a compact summary dict.

    Returns ``{"events", "dropped", "complete", "final_vt", "spans",
    "prunes", "incumbent"}`` where ``spans`` maps span name to
    ``{"count", "work"}`` (work = sum of span durations in work units),
    ``prunes`` maps technique to its event count, and ``incumbent`` is the
    ``(vt, size)`` growth staircase.  ``lazymc trace summarize`` prints it
    and a traced service job carries it as ``trace_summary``.
    """
    footer = events[-1] if events and events[-1].get("ev") == "trace_end" \
        else {}
    spans: dict[str, dict] = {}
    for rec in spans_of(events):
        agg = spans.setdefault(rec["name"], {"count": 0, "work": 0})
        agg["count"] += 1
        agg["work"] += max(rec["end"] - rec["begin"], 0)
    prunes: dict[str, int] = {}
    incumbent: list[tuple[int, int]] = []
    best = 0
    for e in events:
        if e.get("ev") == "prune":
            prunes[e["technique"]] = prunes.get(e["technique"], 0) + 1
        elif e.get("ev") == "incumbent" and e["size"] > best:
            best = e["size"]
            incumbent.append((e["vt"], e["size"]))
    n_body = sum(1 for e in events
                 if e.get("ev") not in ("trace_start", "trace_end"))
    return {
        "events": n_body,
        "dropped": int(footer.get("dropped", 0)),
        "complete": bool(footer.get("complete", False)),
        "final_vt": int(footer.get("vt", 0)),
        "spans": spans,
        "prunes": prunes,
        "incumbent": incumbent,
    }


def to_chrome(events: list[dict]) -> dict:
    """Chrome trace-event JSON (object form with ``traceEvents``)."""
    body, _ = _body(events)
    header = events[0] if events and events[0].get("ev") == "trace_start" else {}
    trace_events: list[dict] = []
    for rec in spans_of(events):
        trace_events.append({
            "name": rec["name"], "ph": "X", "pid": 1, "tid": 1,
            "ts": rec["begin"], "dur": max(rec["end"] - rec["begin"], 0),
            "args": rec["attrs"],
        })
    for e in body:
        if e["ev"] == "prune":
            trace_events.append({
                "name": f"prune:{e['technique']}", "ph": "i", "s": "t",
                "pid": 1, "tid": 1, "ts": e["vt"],
                "args": dict(e.get("attrs", {})),
            })
        elif e["ev"] == "point":
            trace_events.append({
                "name": e["name"], "ph": "i", "s": "t", "pid": 1, "tid": 1,
                "ts": e["vt"], "args": dict(e.get("attrs", {})),
            })
        elif e["ev"] == "incumbent":
            trace_events.append({
                "name": "incumbent", "ph": "C", "pid": 1, "tid": 1,
                "ts": e["vt"], "args": {"size": e["size"]},
            })
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"clock": "work-units",
                      "meta": dict(header.get("meta", {}))},
    }


def to_collapsed(events: list[dict]) -> str:
    """Collapsed-stack flamegraph lines weighted by self work units.

    One line per distinct stack, ``root;child;leaf weight``, sorted for
    deterministic output.  Stacks are reconstructed from the recorded
    ``parent`` links, so sampled-out intermediate spans simply splice
    their children onto the nearest recorded ancestor.
    """
    spans = spans_of(events)
    by_sid = {rec["sid"]: rec for rec in spans}
    child_work: dict[int, int] = {}
    for rec in spans:
        parent = rec["parent"]
        if parent in by_sid:
            child_work[parent] = child_work.get(parent, 0) + \
                (rec["end"] - rec["begin"])

    def stack(rec: dict) -> str:
        names = [rec["name"]]
        parent = rec["parent"]
        while parent in by_sid:
            rec = by_sid[parent]
            names.append(rec["name"])
            parent = rec["parent"]
        return ";".join(reversed(names))

    weights: dict[str, int] = {}
    for rec in spans:
        self_work = (rec["end"] - rec["begin"]) - child_work.get(rec["sid"], 0)
        if self_work <= 0:
            continue
        key = stack(rec)
        weights[key] = weights.get(key, 0) + self_work
    return "\n".join(f"{k} {v}" for k, v in sorted(weights.items())) + "\n"


def write_chrome(events: list[dict], path) -> str:
    """Write :func:`to_chrome` output to ``path``; returns the path."""
    from pathlib import Path

    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(json.dumps(to_chrome(events), sort_keys=True, indent=1))
    return str(p)


def write_collapsed(events: list[dict], path) -> str:
    """Write :func:`to_collapsed` output to ``path``; returns the path."""
    from pathlib import Path

    p = Path(path)
    p.parent.mkdir(parents=True, exist_ok=True)
    p.write_text(to_collapsed(events))
    return str(p)
