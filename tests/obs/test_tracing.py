"""Span tracing: nesting, disabled no-ops, export schema, worker merge."""

import json

import pytest

from repro.obs import schemas, tracing


@pytest.fixture(autouse=True)
def _clean_tracer():
    tracing.disable_tracing()
    yield
    tracing.disable_tracing()


class TestDisabled:
    def test_span_is_shared_noop(self):
        assert not tracing.tracing_enabled()
        first = tracing.span("a", x=1)
        second = tracing.span("b")
        assert first is second  # one shared object, nothing allocated

    def test_noop_span_accepts_usage(self):
        with tracing.span("a", x=1) as sp:
            sp.set(y=2)
        assert tracing.current_tracer() is None


class TestSpans:
    def test_nesting_by_containment(self):
        tracer = tracing.enable_tracing()
        with tracing.span("outer", kind="parent"):
            with tracing.span("inner"):
                pass
            with tracing.span("inner"):
                pass
        inner_a, inner_b, outer = tracer.events
        assert outer["name"] == "outer"
        # Children close before the parent and lie within its interval.
        for inner in (inner_a, inner_b):
            assert inner["ts"] >= outer["ts"]
            assert inner["ts"] + inner["dur"] <= outer["ts"] + outer["dur"]
        assert inner_a["ts"] + inner_a["dur"] <= inner_b["ts"]

    def test_args_and_late_set(self):
        tracer = tracing.enable_tracing()
        with tracing.span("work", trace="nasa7") as sp:
            sp.set(fills=42)
        (event,) = tracer.events
        assert event["args"] == {"trace": "nasa7", "fills": 42}

    def test_span_helper_routes_to_active_tracer(self):
        tracer = tracing.enable_tracing()
        assert tracing.tracing_enabled()
        with tracing.span("x"):
            pass
        assert len(tracer.events) == 1
        tracing.disable_tracing()
        with tracing.span("y"):
            pass
        assert len(tracer.events) == 1  # nothing recorded after disable


class TestExport:
    def test_chrome_trace_validates_and_round_trips(self, tmp_path):
        tracer = tracing.enable_tracing()
        with tracing.span("phase1.extract", trace="swm256", line_size=32):
            pass
        path = tracer.write(tmp_path / "trace.json")
        document = json.loads(path.read_text())
        schemas.validate_chrome_trace(document)
        names = [e["name"] for e in document["traceEvents"]]
        assert "phase1.extract" in names
        assert "thread_name" in names  # viewer track label
        assert document["displayTimeUnit"] == "ms"

    def test_complete_events_have_nonnegative_duration(self):
        tracer = tracing.enable_tracing()
        with tracing.span("a"):
            pass
        (event,) = tracer.events
        assert event["ph"] == "X"
        assert event["dur"] >= 0
        assert event["cat"] == tracing.CATEGORY

    def test_adopt_moves_worker_events_to_own_track(self):
        tracer = tracing.enable_tracing()
        worker_events = [
            {
                "name": "runner.run",
                "cat": "repro",
                "ph": "X",
                "ts": 0.0,
                "dur": 10.0,
                "pid": 0,
                "tid": 0,
                "args": {},
            }
        ]
        tracer.adopt(worker_events, tid=3, name="worker:figure1")
        assert tracer.events[-1]["tid"] == 3
        document = tracer.chrome_trace()
        schemas.validate_chrome_trace(document)
        labels = {
            e["args"]["name"]
            for e in document["traceEvents"]
            if e["name"] == "thread_name"
        }
        assert "worker:figure1" in labels


def _span(name, ts, span_id, parent=None):
    args = {"trace_id": "a" * 32, "span_id": span_id}
    if parent is not None:
        args["parent_span_id"] = parent
    return {
        "name": name,
        "cat": tracing.CATEGORY,
        "ph": "X",
        "ts": ts,
        "dur": 50.0,
        "pid": 7,
        "tid": 0,
        "args": args,
    }


class TestMergeTimelines:
    def test_one_cross_track_edge_gives_one_flow_pair(self):
        wall_us = 1.7e15  # wall-clock microseconds, as both callers pass
        router = [
            _span("campaign.point", wall_us + 100.0, "1" * 16),
            _span("service.forward", wall_us + 110.0, "2" * 16, "1" * 16),
        ]
        worker = [
            _span("service.request", wall_us + 120.0, "3" * 16, "2" * 16),
            _span("service.phase2", wall_us + 130.0, "4" * 16, "3" * 16),
        ]
        document = tracing.merge_timelines([("router", router), ("w0", worker)])
        schemas.validate_chrome_trace(document)
        tracks = {
            e["args"]["name"]: e["pid"]
            for e in document["traceEvents"]
            if e["ph"] == "M"
        }
        assert tracks == {"router": 0, "w0": 1}
        spans = {
            e["name"]: e for e in document["traceEvents"] if e["ph"] == "X"
        }
        assert spans["campaign.point"]["ts"] == 0.0
        assert spans["service.request"]["ts"] == 20.0
        assert spans["service.forward"]["pid"] == 0
        assert spans["service.phase2"]["pid"] == 1
        flows = [
            e for e in document["traceEvents"] if e.get("cat") == "repro.flow"
        ]
        start, finish = sorted(flows, key=lambda e: e["ph"] != "s")
        assert (start["ph"], finish["ph"]) == ("s", "f")
        assert start["id"] == finish["id"] == "2" * 16
        assert (start["pid"], start["ts"]) == (0, 10.0)
        assert (finish["pid"], finish["ts"]) == (1, 20.0)


class TestSchemaRejects:
    def test_missing_trace_events(self):
        with pytest.raises(schemas.SchemaError, match="traceEvents"):
            schemas.validate_chrome_trace({})

    def test_bad_duration(self):
        bad = {
            "traceEvents": [
                {
                    "name": "x",
                    "ph": "X",
                    "ts": 0,
                    "dur": -1,
                    "pid": 0,
                    "tid": 0,
                }
            ]
        }
        with pytest.raises(schemas.SchemaError, match="dur"):
            schemas.validate_chrome_trace(bad)
