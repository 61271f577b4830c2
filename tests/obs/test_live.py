"""Live observability primitives: context, ring tracer, SLIs, exposition."""

import pytest

from repro.obs import live, tracing
from repro.obs.live import (
    QuantileSketch,
    RingTracer,
    RollingWindow,
    parse_exposition,
    render_prometheus,
    request_id_from_header,
    trace_tail_document,
)


@pytest.fixture(autouse=True)
def _no_ambient_tracer():
    tracing.disable_tracing()
    yield
    tracing.disable_tracing()


class TestRequestIds:
    def test_minted_ids_are_distinct_hex(self):
        a, b = live.new_request_id(), live.new_request_id()
        assert a != b
        assert len(a) == 16
        int(a, 16)  # hex

    def test_header_value_honoured(self):
        assert request_id_from_header("abc-123.X:y") == "abc-123.X:y"

    def test_header_sanitized_and_clamped(self):
        assert request_id_from_header("a b\r\nc") == "abc"
        long = "x" * 200
        assert request_id_from_header(long) == "x" * live.MAX_REQUEST_ID_LEN

    def test_garbage_header_mints_fresh_id(self):
        minted = request_id_from_header("\r\n  ")
        assert len(minted) == 16

    def test_missing_header_mints_fresh_id(self):
        assert len(request_id_from_header(None)) == 16


class TestRequestContext:
    def test_current_id_inside_and_outside(self):
        assert live.current_request_id() is None
        with live.request_context("req-1"):
            assert live.current_request_id() == "req-1"
            with live.request_context("req-2"):
                assert live.current_request_id() == "req-2"
            assert live.current_request_id() == "req-1"
        assert live.current_request_id() is None

    def test_none_context_is_a_no_op(self):
        with live.request_context(None) as context:
            assert context is None
            assert live.current_request_id() is None

    def test_annotations_accumulate_per_request(self):
        live.annotate(lost="outside a request, dropped")
        assert live.current_annotations() == {}
        with live.request_context("req-3"):
            live.annotate(cache="miss")
            live.annotate(batched=True)
            assert live.current_annotations() == {
                "cache": "miss",
                "batched": True,
            }
        assert live.current_annotations() == {}

    def test_span_args_carry_the_request_id(self):
        tracer = tracing.install_tracer(RingTracer(capacity=16))
        with live.request_context("req-4"):
            with tracing.span("unit.work", step=1):
                pass
        with tracing.span("unit.outside"):
            pass
        events = {e["name"]: e for e in tracer.events}
        assert events["unit.work"]["args"] == {
            "request_id": "req-4",
            "step": 1,
        }
        assert "request_id" not in events["unit.outside"]["args"]

    def test_explicit_span_arg_wins_over_ambient(self):
        tracer = tracing.install_tracer(RingTracer(capacity=16))
        with live.request_context("ambient"):
            with tracing.span("unit.explicit", request_id="explicit"):
                pass
        assert tracer.events[0]["args"]["request_id"] == "explicit"


class TestRingTracer:
    def test_capacity_bounds_events_but_counts_all(self):
        tracer = RingTracer(capacity=4)
        for i in range(10):
            with tracer.span("s", i=i):
                pass
        assert len(tracer.events) == 4
        assert tracer.recorded == 10
        assert [e["args"]["i"] for e in tracer.tail()] == [6, 7, 8, 9]
        assert [e["args"]["i"] for e in tracer.tail(2)] == [8, 9]
        assert tracer.tail(0) == []

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            RingTracer(capacity=0)

    def test_tail_document_is_a_chrome_trace(self):
        tracer = RingTracer(capacity=8)
        with tracer.span("a"):
            pass
        document = trace_tail_document(tracer, last=5)
        assert document["schema"] == live.TRACE_TAIL_SCHEMA
        assert document["enabled"] is True
        assert document["ring"] == {"capacity": 8, "recorded": 1}
        names = [e["name"] for e in document["traceEvents"]]
        assert "thread_name" in names and "a" in names

    def test_tail_document_without_tracer(self):
        document = trace_tail_document(None)
        assert document["enabled"] is False
        assert document["traceEvents"] == []

    def test_tail_document_plain_tracer(self):
        tracer = tracing.Tracer()
        with tracer.span("b"):
            pass
        document = trace_tail_document(tracer, last=10)
        assert document["ring"]["capacity"] is None
        assert document["ring"]["recorded"] == 1


class TestQuantileSketch:
    def test_empty_sketch_reports_zero(self):
        assert QuantileSketch().quantile(0.99) == 0.0

    def test_quantiles_within_bin_resolution(self):
        sketch = QuantileSketch()
        values = [float(v) for v in range(1, 101)]  # 1..100 ms
        for value in values:
            sketch.add(value)
        for q, expected in ((0.5, 50.0), (0.95, 95.0), (0.99, 99.0)):
            reported = sketch.quantile(q)
            assert expected <= reported <= expected * QuantileSketch.GROWTH * 1.01

    def test_monotone_in_q(self):
        sketch = QuantileSketch()
        for value in (0.1, 1.0, 10.0, 100.0, 1000.0):
            sketch.add(value)
        quantiles = [sketch.quantile(q) for q in (0.1, 0.5, 0.9, 1.0)]
        assert quantiles == sorted(quantiles)

    def test_out_of_range_values_clamp(self):
        sketch = QuantileSketch()
        sketch.add(0.0)
        sketch.add(1e9)
        assert sketch.total == 2
        assert sketch.quantile(1.0) == sketch.upper_edge(QuantileSketch.N_BINS - 1)

    def test_merge_matches_combined(self):
        a, b, combined = QuantileSketch(), QuantileSketch(), QuantileSketch()
        for value in (1.0, 2.0, 3.0):
            a.add(value)
            combined.add(value)
        for value in (10.0, 20.0):
            b.add(value)
            combined.add(value)
        a.merge(b)
        assert a.counts == combined.counts
        assert a.total == combined.total

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            QuantileSketch().quantile(1.5)


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now


class TestRollingWindow:
    def test_counts_and_errors_within_window(self):
        clock = FakeClock()
        window = RollingWindow(window_s=60.0, bucket_s=1.0, clock=clock)
        window.record("simulate", 200, 5.0)
        window.record("simulate", 504, 25.0)
        window.record("health", 200, 0.1)
        summary = window.summary()
        assert summary["simulate"]["count"] == 2
        assert summary["simulate"]["errors"] == 1
        assert summary["health"]["errors"] == 0
        assert list(summary) == sorted(summary)

    def test_4xx_is_not_an_error(self):
        clock = FakeClock()
        window = RollingWindow(clock=clock)
        window.record("simulate", 429, 1.0)
        assert window.summary()["simulate"]["errors"] == 0

    def test_old_buckets_expire(self):
        clock = FakeClock()
        window = RollingWindow(window_s=10.0, bucket_s=1.0, clock=clock)
        window.record("simulate", 200, 1.0)
        clock.now += 5.0
        window.record("simulate", 200, 2.0)
        assert window.summary()["simulate"]["count"] == 2
        clock.now += 6.0  # first record now outside the 10 s window
        assert window.summary()["simulate"]["count"] == 1
        clock.now += 20.0
        assert window.summary() == {}

    def test_quantiles_reflect_window_only(self):
        clock = FakeClock()
        window = RollingWindow(window_s=10.0, bucket_s=1.0, clock=clock)
        window.record("simulate", 200, 1000.0)  # will expire
        clock.now += 11.0
        for _ in range(20):
            window.record("simulate", 200, 1.0)
        p99 = window.summary()["simulate"]["quantiles_ms"]["0.99"]
        assert p99 < 2.0

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            RollingWindow(window_s=1.0, bucket_s=2.0)


class TestExposition:
    def _snapshot(self):
        return {
            "counters": {
                "service.requests{endpoint=simulate,status=200}": 7,
                "engine.replay.calls": 3,
            },
            "histograms": {
                "service.latency_ms{endpoint=simulate}": {
                    "count": 7,
                    "sum": 35.0,
                    "min": 1.0,
                    "max": 20.0,
                }
            },
        }

    def _window(self):
        clock = FakeClock()
        window = RollingWindow(clock=clock)
        for latency in (1.0, 2.0, 50.0):
            window.record("simulate", 200, latency)
        return window.summary()

    def test_round_trips_through_parser(self):
        text = render_prometheus(
            self._snapshot(), self._window(), {"service.ready": 1.0}
        )
        assert text.endswith("\n")
        samples = parse_exposition(text)
        assert samples["repro_service_requests_total"] == [
            ({"endpoint": "simulate", "status": "200"}, 7.0)
        ]
        assert samples["repro_engine_replay_calls_total"] == [({}, 3.0)]
        assert samples["repro_service_latency_ms_count"] == [
            ({"endpoint": "simulate"}, 7.0)
        ]
        assert samples["repro_service_ready"] == [({}, 1.0)]
        quantiles = {
            labels["quantile"]: value
            for labels, value in samples["repro_sli_request_latency_ms"]
            if labels["endpoint"] == "simulate"
        }
        assert set(quantiles) == {"0.5", "0.95", "0.99"}
        assert quantiles["0.5"] <= quantiles["0.99"]
        assert samples["repro_sli_requests_window"] == [
            ({"endpoint": "simulate"}, 3.0)
        ]

    def test_every_family_is_typed(self):
        text = render_prometheus(self._snapshot(), self._window(), {})
        typed = {
            line.split()[2]
            for line in text.splitlines()
            if line.startswith("# TYPE")
        }
        sampled = set(parse_exposition(text))
        # every sampled family has a TYPE line (summary children _count/
        # _sum are covered by their parent family declaration)
        for name in sampled:
            base = name
            for suffix in ("_count", "_sum", "_min", "_max"):
                if name.endswith(suffix) and name not in typed:
                    base = name[: -len(suffix)]
                    break
            assert base in typed or name in typed

    def test_label_values_escaped(self):
        text = render_prometheus(
            {"counters": {'weird{path=a"b\\c}': 1}, "histograms": {}}
        )
        samples = parse_exposition(text)
        [(labels, value)] = samples["repro_weird_total"]
        assert labels == {"path": 'a"b\\c'}

    def test_parser_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_exposition("this is not a metric line\n")
        with pytest.raises(ValueError):
            parse_exposition("repro_ok 1")  # missing trailing newline


class TestEngineCounterExposition:
    """Audit: the engine's dispatch and corruption counters must render
    as labelled Prometheus families, exactly as the emit sites write
    them (events_store, replay, every durable store)."""

    def _registry(self):
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        # The same (name, labels) shapes the engine emits:
        registry.inc(
            "engine.phase1.dispatches", engine="reuse", reason="lru_wb_wa"
        )
        registry.inc(
            "engine.phase1.dispatches", engine="step", reason="disabled"
        )
        registry.inc("engine.step_fallback.dispatches", reason="bus_locked")
        registry.inc("store.corrupt_recompute", store="events")
        registry.inc("store.corrupt_recompute", store="reuse")
        return registry

    def test_dispatch_counters_render_with_labels(self):
        text = render_prometheus(self._registry().snapshot())
        samples = parse_exposition(text)
        phase1 = dict(
            (tuple(sorted(labels.items())), value)
            for labels, value in samples["repro_engine_phase1_dispatches_total"]
        )
        assert phase1[
            (("engine", "reuse"), ("reason", "lru_wb_wa"))
        ] == 1.0
        assert phase1[(("engine", "step"), ("reason", "disabled"))] == 1.0
        assert samples["repro_engine_step_fallback_dispatches_total"] == [
            ({"reason": "bus_locked"}, 1.0)
        ]

    def test_corruption_counters_render(self):
        samples = parse_exposition(
            render_prometheus(self._registry().snapshot())
        )
        assert sorted(
            (labels["store"], value)
            for labels, value in samples["repro_store_corrupt_recompute_total"]
        ) == [("events", 1.0), ("reuse", 1.0)]

    def test_module_level_inc_reaches_the_exposition(self):
        """The engines emit through ``metrics.inc(...)`` with keyword
        labels; that path must land in the exposition verbatim."""
        from repro.obs import metrics as metrics_mod

        registry = metrics_mod.enable_metrics()
        try:
            metrics_mod.inc(
                "engine.phase1.dispatches", engine="reuse", reason="lru_wb_wa"
            )
        finally:
            metrics_mod.disable_metrics()
        samples = parse_exposition(render_prometheus(registry.snapshot()))
        assert samples["repro_engine_phase1_dispatches_total"] == [
            ({"engine": "reuse", "reason": "lru_wb_wa"}, 1.0)
        ]
