"""The full stack over a real socket: server thread + blocking client.

One module-scoped server serves every test here — starting one per test
would re-pay trace extraction and slow the suite for nothing.
"""

import json
import threading

import pytest

from repro.cache import reuse_store
from repro.cache.cache import CacheConfig
from repro.cache.events_store import EVENTS_CACHE_DIR_ENV
from repro.core.execution import execution_breakdown
from repro.core.params import SystemConfig, workload_from_hit_ratio
from repro.core.stalling import StallPolicy
from repro.cpu.replay import simulate
from repro.memory.mainmem import MainMemory
from repro.obs import metrics
from repro.obs.metrics import MetricsRegistry
from repro.obs.schemas import validate_service_response
from repro.service.queries import timing_result_dict
from repro.service import ServerConfig, ServerThread, ServiceClient, ServiceError
from repro.trace import loops
from repro.trace.spec92 import WorkloadProfile, spec92_trace
from repro.util.jsonout import dump_json

TRACE_PARAMS = {"kind": "spec92", "name": "ear", "instructions": 4000, "seed": 7}


@pytest.fixture(scope="module")
def server():
    registry = MetricsRegistry()
    with ServerThread(ServerConfig(), registry=registry) as handle:
        client = ServiceClient("127.0.0.1", handle.port)
        client.wait_ready()
        yield handle, client, registry
        client.close()


class TestAnalyticEndpoints:
    def test_health(self, server):
        _, client, _ = server
        assert client.health() == {"status": "ok"}

    def test_execution_time_matches_library(self, server):
        _, client, _ = server
        result = client.execution_time(hit_ratio=0.95, memory_cycle=8.0)
        config = SystemConfig(4, 32, 8.0)
        workload = workload_from_hit_ratio(0.95, config)
        breakdown = execution_breakdown(workload, config)
        assert result["total_cycles"] == pytest.approx(breakdown.total)
        assert result["cpi"] == pytest.approx(
            breakdown.total / workload.instructions
        )

    def test_tradeoff_and_ranking_consistent(self, server):
        _, client, _ = server
        tradeoff = client.tradeoff(
            feature="doubling-bus", base_hit_ratio=0.9, memory_cycle=8.0
        )
        ranking = client.ranking(base_hit_ratio=0.9, betas=[8.0])
        assert tradeoff["hit_ratio_delta"] == pytest.approx(
            ranking["hit_ratio_traded"]["doubling-bus"][0]
        )

    def test_advise_ranks_features(self, server):
        _, client, _ = server
        result = client.advise(memory_cycle=8.0)
        features = [r["feature"] for r in result["recommendations"]]
        assert len(features) >= 3
        assert 0.0 < result["base_hit_ratio"] < 1.0

    def test_envelopes_validate(self, server):
        _, client, _ = server
        for envelope in (
            client.request("GET", "/v1/health"),
            client.request(
                "POST", "/v1/tradeoff",
                {"feature": "write-buffers", "base_hit_ratio": 0.9},
            ),
            client.stats_envelope(),
            client.simulate(trace=TRACE_PARAMS),
        ):
            validate_service_response(envelope)


class TestSimulateEndpoint:
    def test_result_byte_identical_to_direct_simulate(self, server):
        """The acceptance criterion: the service's result sub-object is
        byte-for-byte what a direct engine call serializes to."""
        _, client, _ = server
        envelope = client.simulate(
            trace=TRACE_PARAMS,
            cache={"total_bytes": 8192, "line_size": 32, "associativity": 2},
            policy="FS",
            memory_cycle=8.0,
            bus_width=4,
        )
        direct = simulate(
            spec92_trace("ear", 4000, seed=7),
            CacheConfig(8192, 32, 2),
            MainMemory(8.0, 4),
            policy=StallPolicy.FULL_STALL,
        )
        expected = dump_json(timing_result_dict(direct, "replay")).encode()
        served = dump_json(envelope["result"]).encode()
        assert served == expected

    def test_repeat_is_cached_with_identical_result(self, server):
        _, client, _ = server
        params = dict(trace=TRACE_PARAMS, policy="BNL3", memory_cycle=16.0)
        cold = client.simulate(**params)
        warm = client.simulate(**params)
        assert cold["cached"] is False
        assert warm["cached"] is True
        assert dump_json(cold["result"]) == dump_json(warm["result"])

    def test_multi_issue_served_by_step_oracle(self, server):
        _, client, _ = server
        envelope = client.simulate(trace=TRACE_PARAMS, issue_rate=2.0)
        assert envelope["result"]["engine"] == "step"
        single = client.simulate(trace=TRACE_PARAMS)
        assert single["result"]["engine"] == "replay"

    def test_concurrent_shared_key_coalesces(self, server):
        """16 concurrent clients over one (trace, geometry) key: phase 1
        runs at most once more, and every beta gets its own answer."""
        handle, _, _ = server
        # The events memo counts into the process-global registry (the
        # server's own when it has none of its own).
        collected = metrics.enable_metrics()
        results: dict[float, dict] = {}
        errors: list[Exception] = []
        barrier = threading.Barrier(16)

        def worker(beta):
            c = ServiceClient("127.0.0.1", handle.port)
            try:
                barrier.wait()
                results[beta] = c.simulate(
                    trace={
                        "kind": "spec92",
                        "name": "hydro2d",
                        "instructions": 4000,
                        "seed": 7,
                    },
                    memory_cycle=beta,
                )["result"]
            except Exception as error:  # pragma: no cover - surfaced below
                errors.append(error)
            finally:
                c.close()

        betas = [float(b) for b in range(2, 18)]
        threads = [threading.Thread(target=worker, args=(b,)) for b in betas]
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            metrics.disable_metrics()
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert len(results) == 16
        # Cycle counts strictly increase with the memory cycle time.
        cycles = [results[b]["cycles"] for b in betas]
        assert cycles == sorted(cycles) and len(set(cycles)) == 16
        assert collected.counter("phase1.memo.miss") == 1

    def test_stats_report_queue_caches_and_latency(self, server):
        _, client, _ = server
        stats = client.stats_envelope()
        assert stats["queue"]["limit"] == 64
        assert stats["result_cache"]["capacity_bytes"] == 8 * 1024 * 1024
        assert stats["latency"]["simulate"]["count"] >= 1
        assert (
            stats["latency"]["simulate"]["p50_ms"]
            <= stats["latency"]["simulate"]["p99_ms"]
        )
        assert stats["counters"]["service.batch.requests"] >= 16


class TestErrorMapping:
    def test_unknown_endpoint_404(self, server):
        _, client, _ = server
        with pytest.raises(ServiceError) as excinfo:
            client.request("GET", "/v1/nonsense")
        assert excinfo.value.status == 404

    def test_wrong_method_405(self, server):
        _, client, _ = server
        with pytest.raises(ServiceError) as excinfo:
            client.request("GET", "/v1/simulate")
        assert excinfo.value.status == 405

    def test_error_envelope_validates(self, server):
        _, client, _ = server
        conn_client = ServiceClient("127.0.0.1", server[0].port)
        try:
            conn_client.request("POST", "/v1/simulate", {"warp": 9})
        except ServiceError as error:
            assert error.status == 400
            assert error.code == "schema_error"
        finally:
            conn_client.close()

    def test_query_string_ignored_for_routing(self, server):
        _, client, _ = server
        assert client.request("GET", "/v1/health?probe=1")["result"] == {
            "status": "ok"
        }


class TestByteIdenticalAnalytic:
    def test_same_request_same_bytes(self, server):
        """Two identical requests produce identical response bytes
        (dump_json canonicalization end to end)."""
        _, client, _ = server
        payload = {"feature": "pipelined-memory", "base_hit_ratio": 0.85}
        first = client.request("POST", "/v1/tradeoff", payload)
        second = client.request("POST", "/v1/tradeoff", payload)
        assert json.dumps(first, sort_keys=True) == json.dumps(
            second, sort_keys=True
        )


class TestColdMissPath:
    def test_cold_miss_profiles_reference_arrays(self, tmp_path, monkeypatch):
        """A cold miss takes the experiments' phase-1 path: the reuse
        engine profiles the trace's reference arrays, and no instruction
        stream is materialized or profiled."""
        monkeypatch.setenv(EVENTS_CACHE_DIR_ENV, str(tmp_path))
        calls = []

        def counted(name, real):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return real(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            WorkloadProfile, "trace", counted("trace", WorkloadProfile.trace)
        )
        monkeypatch.setattr(
            loops,
            "matmul_instructions",
            counted("square_matmul_trace", loops.matmul_instructions),
        )
        monkeypatch.setattr(
            reuse_store,
            "build_profile",
            counted("build_profile", reuse_store.build_profile),
        )
        with ServerThread(ServerConfig(), registry=MetricsRegistry()) as handle:
            client = ServiceClient("127.0.0.1", handle.port)
            client.wait_ready()
            answers = [
                client.simulate(trace=trace, memory_cycle=8.0)
                for trace in (
                    {"kind": "spec92", "name": "wave5", "instructions": 3000},
                    {"kind": "matmul", "n": 12, "tile": 4},
                )
            ]
            client.close()
        assert [answer["cached"] for answer in answers] == [False, False]
        assert calls == []
