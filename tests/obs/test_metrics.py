"""Metrics registry: keys, merge determinism, Eq. (2) breakdown."""

import dataclasses
import json

import pytest

from repro.cache.cache import CacheConfig
from repro.core.stalling import StallPolicy
from repro.cpu.replay import simulate
from repro.memory.mainmem import MainMemory
from repro.obs import metrics, schemas
from repro.trace.spec92 import spec92_trace


@pytest.fixture(autouse=True)
def _clean_registry():
    metrics.disable_metrics()
    yield
    metrics.disable_metrics()


class TestRegistry:
    def test_key_canonicalizes_label_order(self):
        registry = metrics.MetricsRegistry()
        registry.inc("cache.hits", 3, trace="swm256", geometry="8192B")
        registry.inc("cache.hits", 2, geometry="8192B", trace="swm256")
        key = "cache.hits{geometry=8192B,trace=swm256}"
        assert registry.snapshot()["counters"] == {key: 5}

    def test_histograms_track_count_sum_min_max(self):
        registry = metrics.MetricsRegistry()
        for value in (4.0, 1.0, 9.0):
            registry.observe("phi", value)
        hist = registry.snapshot()["histograms"]["phi"]
        assert hist == {"count": 3, "sum": 14.0, "min": 1.0, "max": 9.0}

    def test_merge_equals_recording_in_one_registry(self):
        parts = []
        for chunk in ((1.0, 2.0), (3.0,)):
            registry = metrics.MetricsRegistry()
            for value in chunk:
                registry.inc("calls")
                registry.observe("latency", value)
            parts.append(registry.snapshot())
        merged = metrics.MetricsRegistry()
        for snapshot in parts:
            merged.merge(snapshot)
        whole = metrics.MetricsRegistry()
        for value in (1.0, 2.0, 3.0):
            whole.inc("calls")
            whole.observe("latency", value)
        assert merged.to_json() == whole.to_json()

    def test_to_json_is_sorted_and_validates(self):
        registry = metrics.MetricsRegistry()
        registry.inc("z.last")
        registry.inc("a.first")
        registry.observe("h", 1.5)
        document = json.loads(registry.to_json())
        schemas.validate_metrics(document)
        assert list(document["counters"]) == ["a.first", "z.last"]

    def test_counter_reads_back_with_labels(self):
        registry = metrics.MetricsRegistry()
        registry.inc("hits", 7, trace="nasa7")
        assert registry.counter("hits", trace="nasa7") == 7
        assert registry.counter("hits") == 0


class TestModuleHelpers:
    def test_noop_when_disabled(self):
        assert not metrics.metrics_enabled()
        metrics.inc("anything", 5)
        metrics.observe("anything", 5.0)
        assert metrics.current_metrics() is None

    def test_records_when_enabled(self):
        registry = metrics.enable_metrics()
        metrics.inc("calls")
        metrics.observe("latency", 2.0)
        assert registry.counter("calls") == 1
        assert metrics.current_metrics() is registry
        metrics.disable_metrics()
        metrics.inc("calls")
        assert registry.counter("calls") == 1


def _simulated(beta, policy=StallPolicy.FULL_STALL, depth=None):
    trace = spec92_trace("swm256", 2_000, seed=3)
    return simulate(
        trace,
        CacheConfig(total_bytes=1024, line_size=32, associativity=2),
        MainMemory(beta, 4),
        policy=policy,
        write_buffer_depth=depth,
    )


class TestEq2:
    def test_breakdown_sums_to_total_on_real_replay(self):
        result = _simulated(8.0)
        breakdown = metrics.eq2_breakdown(result)
        terms = (
            breakdown["execute_cycles"]
            + breakdown["read_stall_cycles"]
            + breakdown["flush_stall_cycles"]
            + breakdown["write_buffer_stall_cycles"]
        )
        assert terms == breakdown["total_cycles"] == result.cycles

    def test_breakdown_holds_for_fractional_beta(self):
        # Dyadic beta keeps every term exactly representable.
        result = _simulated(2.5)
        breakdown = metrics.eq2_breakdown(result)
        assert breakdown["total_cycles"] == result.cycles

    def test_breakdown_holds_with_write_buffer(self):
        result = _simulated(8.0, depth=4)
        breakdown = metrics.eq2_breakdown(result)
        assert breakdown["total_cycles"] == result.cycles
        assert breakdown["write_buffer_stall_cycles"] >= 0

    def test_mismatch_raises(self):
        class Broken:
            cycles = 100.0
            read_miss_stall_cycles = 10.0
            flush_stall_cycles = float("nan")  # poisons reconstruction
            write_stall_cycles = 0.0
            instructions = 50

        with pytest.raises(metrics.Eq2MismatchError):
            metrics.eq2_breakdown(Broken())

    def test_record_timing_accumulates_counters(self):
        registry = metrics.enable_metrics()
        result = _simulated(8.0)
        # simulate() already recorded once; record again explicitly.
        metrics.record_timing("replay", result)
        assert registry.counter("engine.replay.calls") >= 1
        assert registry.counter("eq2.total_cycles") > 0
        for name in metrics.EQ2_TERMS:
            assert name in registry.snapshot()["counters"]

    def test_overflowed_result_is_not_recorded(self):
        registry = metrics.enable_metrics()
        result = dataclasses.replace(_simulated(8.0), cycles=float("inf"))
        before = registry.snapshot()["counters"]
        metrics.record_timing("replay", result)  # must not raise
        assert registry.snapshot()["counters"] == before

    def test_record_timing_noop_when_disabled(self):
        result = _simulated(8.0)
        metrics.record_timing("replay", result)  # must not raise
        assert metrics.current_metrics() is None


class TestSchemaRejects:
    def test_wrong_schema_tag(self):
        with pytest.raises(schemas.SchemaError, match="schema"):
            schemas.validate_metrics(
                {"schema": "other/9", "counters": {}, "histograms": {}}
            )

    def test_histogram_min_above_max(self):
        bad = {
            "schema": metrics.SNAPSHOT_SCHEMA,
            "counters": {},
            "histograms": {
                "h": {"count": 1, "sum": 1.0, "min": 5.0, "max": 1.0}
            },
        }
        with pytest.raises(schemas.SchemaError, match="min"):
            schemas.validate_metrics(bad)
