"""Unit tests for trace spans, the null recorder, and the Chrome export."""

import json

from repro.obs import Telemetry, get_telemetry, set_telemetry
from repro.obs.tracing import (
    NULL_SPAN,
    NULL_TRACER,
    Tracer,
    chrome_trace_from_summaries,
    validate_chrome_trace,
)


class TestNullTracer:
    def test_span_returns_singleton(self):
        assert NULL_TRACER.span("anything", key=1) is NULL_SPAN
        assert NULL_TRACER.begin("anything") is NULL_SPAN

    def test_null_span_is_inert_context_manager(self):
        with NULL_TRACER.span("x") as span:
            assert span.set(foo=1) is span
        span.finish(bar=2)
        assert NULL_TRACER.drain() == []
        assert NULL_TRACER.enabled is False


class TestTracer:
    def test_span_records_complete_event(self):
        tracer = Tracer()
        with tracer.span("engine.run", players=5) as span:
            span.set(rounds=2)
        (event,) = tracer.drain()
        assert event["name"] == "engine.run"
        assert event["ph"] == "X"
        assert event["dur"] >= 0
        assert event["args"] == {"players": 5, "rounds": 2}
        assert "parent" not in event

    def test_nested_spans_have_parent_links(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner"):
                pass
        events = {e["name"]: e for e in tracer.drain()}
        assert events["inner"]["parent"] == outer.span_id
        assert "parent" not in events["outer"]

    def test_event_parented_on_enclosing_span(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            tracer.event("hit", player="3")
        events = {e["name"]: e for e in tracer.drain()}
        assert events["hit"]["ph"] == "i"
        assert events["hit"]["parent"] == outer.span_id

    def test_begin_span_does_not_join_stack(self):
        tracer = Tracer()
        free = tracer.begin("task.dispatch", worker=0)
        with tracer.span("nested"):
            pass
        free.finish(status="ok")
        events = {e["name"]: e for e in tracer.drain()}
        assert "parent" not in events["nested"]
        assert events["task.dispatch"]["args"]["status"] == "ok"

    def test_drain_clears_and_sorts(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        events = tracer.drain()
        assert [e["ts"] for e in events] == sorted(e["ts"] for e in events)
        assert tracer.drain() == []

    def test_exception_pops_stack(self):
        tracer = Tracer()
        try:
            with tracer.span("outer"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        with tracer.span("after"):
            pass
        events = {e["name"]: e for e in tracer.drain()}
        assert "parent" not in events["after"]


class TestTelemetryHandle:
    def test_default_handle_is_nontracing(self):
        handle = get_telemetry()
        assert handle.tracing is False
        assert handle.span("x") is NULL_SPAN

    def test_set_telemetry_roundtrip(self):
        traced = Telemetry(tracing=True)
        previous = set_telemetry(traced)
        try:
            assert get_telemetry() is traced
            assert get_telemetry().tracing is True
        finally:
            set_telemetry(previous)
        assert get_telemetry() is previous

    def test_set_none_installs_a_fresh_default(self):
        previous = set_telemetry(None)
        try:
            installed = get_telemetry()
            assert installed is not previous
            assert installed.tracing is False
            assert installed.span("x") is NULL_SPAN
        finally:
            set_telemetry(previous)
        assert get_telemetry() is previous

    def test_drain_events(self):
        handle = Telemetry(tracing=True)
        with handle.span("x"):
            handle.event("y")
        assert {e["name"] for e in handle.drain_events()} == {"x", "y"}


class TestChromeExport:
    def _summary(self, worker=1):
        tracer = Tracer()
        with tracer.span("task.execute", kind="run_spec"):
            with tracer.span("engine.run"):
                tracer.event("engine.best_response", memo_hit=True)
        events = tracer.drain()
        return {
            "worker": worker,
            "index": 0,
            "spec_hash": "abc",
            "kind": "run_spec",
            "wall_s": 0.01,
            "span_count": len(events),
            "events": events,
        }

    def test_export_is_valid_and_json_serializable(self):
        doc = chrome_trace_from_summaries([self._summary(1), self._summary(2)])
        assert validate_chrome_trace(doc) == []
        json.dumps(doc)  # journal/file round-trip safety

    def test_worker_becomes_pid_lane(self):
        doc = chrome_trace_from_summaries([self._summary(1), self._summary(2)])
        events = doc["traceEvents"]
        metadata = [e for e in events if e["ph"] == "M"]
        assert {m["pid"] for m in metadata} == {1, 2}
        assert all(m["name"] == "process_name" for m in metadata)
        pids = {e["pid"] for e in events if e["ph"] != "M"}
        assert pids == {1, 2}

    def test_timestamps_rebased_to_zero(self):
        doc = chrome_trace_from_summaries([self._summary()])
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert min(e["ts"] for e in spans) == 0.0

    def test_instant_events_carry_scope(self):
        doc = chrome_trace_from_summaries([self._summary()])
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        assert instants and all(e["s"] == "t" for e in instants)

    def test_validate_flags_problems(self):
        assert validate_chrome_trace({}) == ["missing traceEvents key"]
        assert validate_chrome_trace({"traceEvents": {}}) == [
            "traceEvents is not a list"
        ]
        problems = validate_chrome_trace(
            {"traceEvents": [{"name": "x", "ph": "X", "pid": 0, "tid": 0, "ts": 1}]}
        )
        assert problems == ["event 0: complete event missing dur"]
