"""End-to-end live observability: ids, /metrics, access log, trace tail.

One module-scoped server with every observability surface enabled; the
tests drive it with real requests and then cross-check the three views
of the same traffic (Prometheus exposition, access log, span ring).
"""

import threading

import pytest

from repro.obs import tracing
from repro.obs.access_log import read_access_log
from repro.obs.live import RingTracer, parse_exposition
from repro.obs.metrics import MetricsRegistry
from repro.obs.schemas import validate_access_log_record, validate_profile
from repro.service import ServerConfig, ServerThread, ServiceClient, ServiceError

TRACE = {"kind": "spec92", "name": "swm256", "instructions": 2000, "seed": 7}


@pytest.fixture(scope="module")
def handle(tmp_path_factory):
    access_log = tmp_path_factory.mktemp("obs") / "access.jsonl"
    config = ServerConfig(access_log_path=str(access_log))
    handle = ServerThread(config, registry=MetricsRegistry()).start()
    probe = ServiceClient("127.0.0.1", handle.port)
    probe.wait_ready()
    probe.close()
    yield handle
    handle.stop()


@pytest.fixture()
def client(handle):
    with ServiceClient("127.0.0.1", handle.port) as client:
        yield client


def _access_records(handle):
    assert handle.server.access_log is not None
    return read_access_log(handle.server.access_log.path)


class TestRequestIds:
    def test_inbound_id_is_honoured_and_echoed(self, handle, client):
        envelope = client.request(
            "POST",
            "/v1/simulate",
            {"trace": TRACE, "memory_cycle": 6.0},
            request_id="pinned-id-1",
        )
        assert envelope["result"]["cycles"] > 0
        assert client.last_request_id == "pinned-id-1"
        records = [
            r for r in _access_records(handle) if r["request_id"] == "pinned-id-1"
        ]
        assert len(records) == 1
        assert records[0]["endpoint"] == "simulate"

    def test_missing_id_is_minted(self, client):
        client.health()
        assert client.last_request_id
        assert len(client.last_request_id) == 16

    def test_unusable_inbound_id_is_replaced(self, client):
        client.request("GET", "/v1/health", request_id="@ $$ @")
        assert client.last_request_id
        assert "@" not in client.last_request_id


class TestProbesAndMetrics:
    def test_healthz_and_readyz_while_serving(self, client):
        assert client.healthz()["status"] == "ok"
        assert client.readyz()["status"] == "ready"

    def test_metrics_is_valid_exposition_with_sli_quantiles(
        self, handle, client
    ):
        client.simulate(trace=TRACE, memory_cycle=6.5)
        client.simulate(trace=TRACE, memory_cycle=6.5)  # cache hit
        text = client.metrics_text()
        samples = parse_exposition(text)
        assert text.endswith("\n")

        ready = dict(
            (tuple(sorted(labels.items())), value)
            for labels, value in samples["repro_service_ready"]
        )
        assert ready[()] == 1.0

        latency = samples["repro_sli_request_latency_ms"]
        quantiles_by_endpoint = {}
        for labels, value in latency:
            quantiles_by_endpoint.setdefault(labels["endpoint"], {})[
                labels["quantile"]
            ] = value
        assert "simulate" in quantiles_by_endpoint
        for endpoint, quantiles in quantiles_by_endpoint.items():
            assert set(quantiles) == {"0.5", "0.95", "0.99"}, endpoint
            assert quantiles["0.5"] <= quantiles["0.99"]

        counter_endpoints = {
            labels.get("endpoint")
            for labels, _ in samples.get("repro_service_requests_total", [])
        }
        assert "simulate" in counter_endpoints

    def test_metrics_requests_are_themselves_logged(self, handle, client):
        client.get_text("/metrics", request_id="metrics-probe")
        records = [
            r
            for r in _access_records(handle)
            if r["request_id"] == "metrics-probe"
        ]
        assert len(records) == 1
        assert records[0]["endpoint"] == "metrics"
        assert records[0]["status"] == 200


class TestTraceTailAndAccessLog:
    def test_span_request_ids_appear_in_access_log(self, handle, client):
        client.request(
            "POST",
            "/v1/simulate",
            {"trace": TRACE, "memory_cycle": 7.0},
            request_id="traced-sim-1",
        )
        document = client.debug_trace(last=500)
        assert document["enabled"] is True
        assert document["ring"]["capacity"] == 4096
        span_ids = {
            event["args"]["request_id"]
            for event in document["traceEvents"]
            if event.get("ph") == "X" and "request_id" in event.get("args", {})
        }
        assert "traced-sim-1" in span_ids
        logged_ids = {r["request_id"] for r in _access_records(handle)}
        # every request id a span saw belongs to a logged request ("-"
        # never appears: ingress always installs a context)
        assert span_ids <= logged_ids

    def test_simulate_spans_cover_both_phases(self, client):
        client.request(
            "POST",
            "/v1/simulate",
            {"trace": {**TRACE, "seed": 9}, "memory_cycle": 7.5},
            request_id="phases-1",
        )
        document = client.debug_trace(last=500)
        names = {
            event["name"]
            for event in document["traceEvents"]
            if event.get("args", {}).get("request_id") == "phases-1"
        }
        assert "service.request" in names
        assert "service.phase2" in names

    def test_every_access_log_record_validates(self, handle, client):
        with pytest.raises(ServiceError):
            client.simulate(trace={"kind": "nope"})
        records = _access_records(handle)
        assert records
        for record in records:
            validate_access_log_record(record)
        errors = [r for r in records if r["status"] == 400]
        assert errors and errors[-1]["error_code"] == "schema_error"

    def test_cache_annotations_logged(self, handle, client):
        params = {"trace": {**TRACE, "seed": 13}, "memory_cycle": 8.0}
        client.request("POST", "/v1/simulate", params, request_id="cold-1")
        client.request("POST", "/v1/simulate", params, request_id="warm-1")
        by_id = {r["request_id"]: r for r in _access_records(handle)}
        assert by_id["cold-1"]["cache"] == "miss"
        assert by_id["cold-1"]["batched"] is True
        assert by_id["warm-1"]["cache"] == "hit"
        assert "batched" not in by_id["warm-1"]

    def test_deadline_left_is_logged(self, handle, client):
        client.request(
            "POST",
            "/v1/simulate",
            {
                "trace": {**TRACE, "seed": 17},
                "memory_cycle": 8.5,
                "deadline_ms": 20000.0,
            },
            request_id="deadline-1",
        )
        by_id = {r["request_id"]: r for r in _access_records(handle)}
        record = by_id["deadline-1"]
        assert record["deadline_ms"] == 20000.0
        assert 0.0 < record["deadline_left_ms"] < 20000.0


class TestDebugProfile:
    def test_window_attributes_concurrent_traffic(self, handle, client):
        stop = threading.Event()

        def hammer():
            seed = 100
            with ServiceClient("127.0.0.1", handle.port) as load:
                while not stop.is_set():
                    seed += 1
                    load.simulate(
                        trace={**TRACE, "seed": seed}, memory_cycle=6.0
                    )

        thread = threading.Thread(target=hammer)
        thread.start()
        try:
            document = client.debug_profile(seconds=0.6, hz=300)
        finally:
            stop.set()
            thread.join()
        validate_profile(document)
        assert document["hz"] == 300
        # Requests served during the window open spans after the
        # profiler installed phase tracking, so their samples are
        # attributed to service phases.
        assert any(phase.startswith("service.") for phase in document["phases"])

    def test_profile_id_is_annotated_in_access_log(self, handle, client):
        document = client.debug_profile(seconds=0.1)
        records = [
            r
            for r in _access_records(handle)
            if r.get("profile_id") == document["id"]
        ]
        assert len(records) == 1
        assert records[0]["endpoint"] == "debug-profile"
        validate_access_log_record(records[0])

    def test_concurrent_window_is_409(self, handle):
        outcome = {}

        def long_window():
            with ServiceClient("127.0.0.1", handle.port) as first:
                outcome["document"] = first.debug_profile(seconds=0.8)

        thread = threading.Thread(target=long_window)
        thread.start()
        try:
            import time

            time.sleep(0.25)
            with ServiceClient("127.0.0.1", handle.port) as second:
                with pytest.raises(ServiceError) as info:
                    second.debug_profile(seconds=0.1)
            assert info.value.status == 409
            assert info.value.code == "profile_active"
        finally:
            thread.join()
        validate_profile(outcome["document"])

    def test_bad_query_bounds(self, client):
        for path in (
            "/v1/debug/profile?seconds=0",
            "/v1/debug/profile?seconds=9999",
            "/v1/debug/profile?hz=0",
            "/v1/debug/profile?hz=fast",
        ):
            with pytest.raises(ServiceError) as info:
                client.request("GET", path)
            assert info.value.status == 400
            assert info.value.code == "bad_query"

    def test_draining_server_refuses_new_windows(self, handle, client):
        handle.server._draining = True
        try:
            with pytest.raises(ServiceError) as info:
                client.debug_profile(seconds=0.1)
            assert info.value.status == 503
            assert info.value.code == "draining"
        finally:
            handle.server._draining = False


class TestClientStats:
    def test_latency_and_calls_recorded(self, handle):
        with ServiceClient("127.0.0.1", handle.port) as client:
            client.simulate(trace=TRACE, memory_cycle=6.5)
            client.health()
            summary = client.stats.summary()
        assert summary["calls"] == 2
        assert summary["retries"] == 0
        assert summary["errors"] == 0
        assert summary["latency_ms"]["p50"] > 0.0
        assert summary["latency_ms"]["p99"] >= summary["latency_ms"]["p50"]

    def test_errors_counted(self, handle):
        with ServiceClient("127.0.0.1", handle.port) as client:
            with pytest.raises(ServiceError):
                client.simulate(trace={"kind": "nope"})
            assert client.stats.errors == 1
            assert client.stats.calls == 1


class TestTracerLifecycle:
    """Each test parks the ambient tracer (the module server's ring) so
    the nested server under test sees a clean slate, then restores it."""

    @pytest.fixture(autouse=True)
    def _clean_ambient_tracer(self):
        previous = tracing.disable_tracing()
        yield
        if previous is not None:
            tracing.install_tracer(previous)

    def test_server_installs_and_removes_its_ring(self):
        config = ServerConfig()
        handle = ServerThread(config, registry=MetricsRegistry()).start()
        try:
            probe = ServiceClient("127.0.0.1", handle.port)
            probe.wait_ready()
            probe.close()
            assert isinstance(tracing.current_tracer(), RingTracer)
        finally:
            handle.stop()
        assert tracing.current_tracer() is None

    def test_externally_installed_tracer_is_preserved(self):
        mine = tracing.install_tracer(RingTracer(capacity=32))
        config = ServerConfig()
        handle = ServerThread(config, registry=MetricsRegistry()).start()
        try:
            assert tracing.current_tracer() is mine
        finally:
            handle.stop()
        assert tracing.current_tracer() is mine
        tracing.disable_tracing()

    def test_disabled_ring_leaves_tracing_off(self):
        config = ServerConfig(span_ring_capacity=0)
        handle = ServerThread(config, registry=MetricsRegistry()).start()
        try:
            with ServiceClient("127.0.0.1", handle.port) as client:
                client.wait_ready()
                document = client.debug_trace()
            assert document["enabled"] is False
            assert document["traceEvents"] == []
            assert tracing.current_tracer() is None
        finally:
            handle.stop()
