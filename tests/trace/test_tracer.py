"""Tests for the tracer core: null path, recorder, clock, sampling, cap."""

import json

import pytest

from repro.errors import TraceError
from repro.instrument import Counters
from repro.trace import (
    NULL_TRACER,
    SCHEMA_VERSION,
    TraceRecorder,
    Tracer,
    load_trace,
    parse_jsonl,
    validate_event,
    validate_events,
)


class TestNullTracer:
    def test_disabled_and_inert(self):
        assert NULL_TRACER.enabled is False
        NULL_TRACER.bind(Counters())
        with NULL_TRACER.span("x", sampled=True, v=1):
            NULL_TRACER.prune("lazy_filter")
            NULL_TRACER.incumbent(3)
            NULL_TRACER.point("p")
        NULL_TRACER.finish()

    def test_span_end_idempotent(self):
        span = NULL_TRACER.span("x")
        span.end()
        span.end(extra=1)

    def test_singleton_is_base_class_instance(self):
        # Call sites type-hint Tracer; the singleton must satisfy that.
        assert isinstance(NULL_TRACER, Tracer)
        assert not isinstance(NULL_TRACER, TraceRecorder)


class TestVirtualClock:
    def test_vt_follows_counter_work(self):
        c = Counters()
        rec = TraceRecorder(c)
        assert rec.vt == 0
        c.elements_scanned += 10
        assert rec.vt == 10
        c.words_scanned += 5
        assert rec.vt == 15

    def test_unbound_recorder_reads_zero(self):
        rec = TraceRecorder()
        rec.point("p")
        assert rec.events[0]["vt"] == 0


class TestRecording:
    def test_span_nesting_and_parents(self):
        c = Counters()
        rec = TraceRecorder(c)
        with rec.span("outer"):
            c.elements_scanned += 3
            with rec.span("inner"):
                c.elements_scanned += 4
        kinds = [(e["ev"], e["name"]) for e in rec.events]
        assert kinds == [("span_begin", "outer"), ("span_begin", "inner"),
                         ("span_end", "inner"), ("span_end", "outer")]
        outer_sid = rec.events[0]["sid"]
        assert rec.events[0]["parent"] is None
        assert rec.events[1]["parent"] == outer_sid
        assert rec.events[2]["vt"] == 7
        assert rec.events[3]["vt"] == 7

    def test_end_attrs_land_on_span_end(self):
        rec = TraceRecorder(Counters())
        span = rec.span("s")
        span.end(size=5)
        assert rec.events[-1]["attrs"] == {"size": 5}

    def test_sampling_is_count_deterministic(self):
        rec = TraceRecorder(Counters(), sample_every=3)
        for _ in range(9):
            rec.prune("lazy_filter")
        assert len(rec.events) == 3  # emissions 1, 4, 7

    def test_sampled_span_shares_the_gate_with_prunes(self):
        rec = TraceRecorder(Counters(), sample_every=2)
        spans = [rec.span("n", sampled=True) for _ in range(4)]
        for s in reversed(spans):
            s.end()
        begins = [e for e in rec.events if e["ev"] == "span_begin"]
        ends = [e for e in rec.events if e["ev"] == "span_end"]
        assert len(begins) == 2 and len(ends) == 2

    def test_unsampled_events_always_recorded(self):
        rec = TraceRecorder(Counters(), sample_every=1000)
        rec.incumbent(4)
        rec.point("dispatch")
        with rec.span("structural"):
            pass
        assert len(rec.events) == 4

    def test_max_events_cap_counts_drops(self):
        rec = TraceRecorder(Counters(), max_events=2)
        rec.point("a")
        rec.point("b")
        rec.point("c")
        rec.incumbent(2)
        assert len(rec.events) == 2
        assert rec.dropped == 2
        assert rec.footer()["dropped"] == 2

    def test_recorded_span_closes_past_the_cap(self):
        rec = TraceRecorder(Counters(), max_events=1)
        span = rec.span("s")  # takes the only slot
        rec.point("lost")
        span.end()
        assert [e["ev"] for e in rec.events] == ["span_begin", "span_end"]
        validate_events(rec.all_events())

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TraceRecorder(sample_every=0)
        with pytest.raises(ValueError):
            TraceRecorder(max_events=0)


class TestSerialization:
    def test_stream_shape_and_schema(self):
        rec = TraceRecorder(Counters(), meta={"target": "g"})
        with rec.span("s"):
            rec.prune("lazy_filter")
        rec.finish()
        events = rec.all_events()
        assert events[0]["ev"] == "trace_start"
        assert events[0]["schema"] == SCHEMA_VERSION
        assert events[0]["meta"] == {"target": "g"}
        assert events[-1]["ev"] == "trace_end"
        assert events[-1]["complete"] is True
        validate_events(events)

    def test_wall_time_stripped_by_default(self):
        rec = TraceRecorder(Counters())
        rec.point("p")
        assert "wall" in rec.events[0]  # captured in memory
        assert all("wall" not in e for e in rec.all_events())
        assert "wall" in rec.all_events(include_wall=True)[1]

    def test_jsonl_parses_back(self):
        rec = TraceRecorder(Counters())
        rec.incumbent(3, source="test")
        rec.finish()
        events = parse_jsonl(rec.to_jsonl())
        validate_events(events)
        assert events[1]["size"] == 3

    def test_write_and_load_round_trip(self, tmp_path):
        rec = TraceRecorder(Counters())
        with rec.span("s"):
            pass
        rec.finish()
        path = tmp_path / "sub" / "t.trace.jsonl"  # parent dir auto-created
        rec.write(path)
        events = load_trace(path)
        assert [e["ev"] for e in events] == \
            ["trace_start", "span_begin", "span_end", "trace_end"]

    def test_rewrite_is_a_full_replacement(self, tmp_path):
        rec = TraceRecorder(Counters())
        path = tmp_path / "t.jsonl"
        rec.point("a")
        rec.write(path)
        first = path.read_text()
        rec.point("b")
        rec.write(path)
        second = path.read_text()
        assert first != second
        validate_events(load_trace(path))  # flush-anytime leaves valid streams


class TestValidation:
    def _valid(self):
        rec = TraceRecorder(Counters())
        rec.prune("lazy_filter")
        rec.finish()
        return rec.all_events()

    def test_rejects_missing_header(self):
        with pytest.raises(TraceError):
            validate_events(self._valid()[1:])

    def test_rejects_missing_footer(self):
        with pytest.raises(TraceError):
            validate_events(self._valid()[:-1])

    def test_rejects_unknown_technique(self):
        events = self._valid()
        events[1]["technique"] = "wishful_thinking"
        with pytest.raises(TraceError):
            validate_events(events)

    def test_rejects_nonmonotone_clock(self):
        rec = TraceRecorder(Counters())
        rec.point("a")
        rec.point("b")
        rec.finish()
        events = rec.all_events()
        events[1]["vt"] = 10
        with pytest.raises(TraceError):
            validate_events(events)

    def test_rejects_unclosed_span_on_complete_stream(self):
        rec = TraceRecorder(Counters())
        rec.span("open")
        rec.finish()  # claims complete with a span still open
        with pytest.raises(TraceError):
            validate_events(rec.all_events())

    def test_open_span_legal_on_incomplete_stream(self):
        rec = TraceRecorder(Counters())
        rec.span("open")
        validate_events(rec.all_events())  # complete=False: a crash snapshot

    def test_rejects_junk_lines(self):
        with pytest.raises(TraceError):
            parse_jsonl("not json\n")
        # parse_jsonl itself doesn't validate; the event check rejects
        # anything that isn't a JSON object.
        (event,) = parse_jsonl(json.dumps(["a", "list"]) + "\n")
        with pytest.raises(TraceError):
            validate_event(event)
