"""repro.trace — deterministic search-tree tracing.

The observability layer over the solver and the service: span/event
tracing on a virtual clock measured in counted work units (bit-reproducible
across machines), and exporters to Chrome trace-event JSON,
collapsed-stack flamegraphs and a JSON summary.  Where the work went, per
phase and per filter stage, is on the solve's own record
(``MCResult.timers`` and ``MCResult.funnel``).  See docs/observability.md.

Quickstart::

    from repro import lazymc
    from repro.trace import TraceRecorder

    recorder = TraceRecorder()
    result = lazymc(graph, tracer=recorder)
    recorder.write("solve.trace.jsonl")
"""

from .events import (
    SCHEMA_VERSION,
    TECHNIQUES,
    load_trace,
    parse_jsonl,
    validate_event,
    validate_events,
)
from .export import (
    summarize_events,
    to_chrome,
    to_collapsed,
    write_chrome,
    write_collapsed,
)
from .tracer import NULL_TRACER, TraceRecorder, Tracer

__all__ = [
    "Tracer",
    "TraceRecorder",
    "NULL_TRACER",
    "summarize_events",
    "SCHEMA_VERSION",
    "TECHNIQUES",
    "load_trace",
    "parse_jsonl",
    "validate_event",
    "validate_events",
    "to_chrome",
    "to_collapsed",
    "write_chrome",
    "write_collapsed",
]
