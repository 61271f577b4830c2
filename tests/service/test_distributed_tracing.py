"""End-to-end trace-context propagation through one server process.

Pins the tentpole contracts at the single-process level: a pinned
traceparent threads client → ingress span → batch-thread phase-2 span,
the access log and ``/metrics`` exemplars join the same identity, the
span spool survives a drain as a validating artifact — and with tracing
disabled, all of it stays pinned off.
"""

import pytest

from repro.obs.access_log import read_access_log
from repro.obs.live import format_traceparent, parse_exposition
from repro.obs.schemas import validate_access_log_record
from repro.service import ServerConfig, ServerThread, ServiceClient

TRACE = {"kind": "spec92", "name": "swm256", "instructions": 2000, "seed": 7}
TRACE_ID = "ab" * 16
PARENT_SPAN = "cd" * 8
TRACEPARENT = format_traceparent(TRACE_ID, PARENT_SPAN)


@pytest.fixture(scope="module")
def handle(tmp_path_factory):
    base = tmp_path_factory.mktemp("tracing")
    config = ServerConfig(
        access_log_path=str(base / "access.jsonl"),
        span_spool_dir=str(base / "spans"),
    )
    handle = ServerThread(config).start()
    probe = ServiceClient("127.0.0.1", handle.port)
    probe.wait_ready()
    probe.close()
    yield handle
    handle.stop()


@pytest.fixture()
def client(handle):
    with ServiceClient("127.0.0.1", handle.port) as client:
        yield client


def _spans_of(client, trace_id):
    document = client.debug_trace(trace_id=trace_id)
    return [
        event
        for event in document["traceEvents"]
        if event.get("ph") == "X"
    ]


class TestPropagation:
    def test_pinned_traceparent_threads_the_whole_request(self, client):
        envelope = client.request(
            "POST",
            "/v1/simulate",
            {"trace": TRACE, "memory_cycle": 7.25},
            traceparent=TRACEPARENT,
        )
        assert envelope["result"]["cycles"] > 0
        assert client.last_trace_id == TRACE_ID
        spans = _spans_of(client, TRACE_ID)
        by_name = {event["name"]: event for event in spans}
        ingress = by_name["service.request"]
        assert ingress["args"]["trace_id"] == TRACE_ID
        # The client's span is the ingress span's parent.
        assert ingress["args"]["parent_span_id"] == PARENT_SPAN
        # The batch worker thread re-entered the request's context, so
        # phase 2 is a descendant in the same trace, not an orphan.
        phase2 = by_name["service.phase2"]
        assert phase2["args"]["trace_id"] == TRACE_ID
        assert "parent_span_id" in phase2["args"]
        # Every span of this tree, and only this tree, was returned.
        assert all(e["args"]["trace_id"] == TRACE_ID for e in spans)

    def test_minted_ids_differ_per_request(self, client):
        client.health()
        first = client.last_trace_id
        client.health()
        assert first and client.last_trace_id
        assert first != client.last_trace_id
        assert len(first) == 32

    def test_malformed_traceparent_gets_a_fresh_context(self, client):
        client.request(
            "GET", "/v1/health", traceparent="00-zz-bogus-01"
        )
        assert client.last_trace_id
        assert len(client.last_trace_id) == 32
        assert client.last_trace_id != "zz"
        # The fresh trace is rootless: its ingress span has no parent.
        (ingress,) = [
            e
            for e in _spans_of(client, client.last_trace_id)
            if e["name"] == "service.request"
        ]
        assert "parent_span_id" not in ingress["args"]

    def test_trace_id_filter_excludes_other_traffic(self, client):
        client.request(
            "POST",
            "/v1/simulate",
            {"trace": TRACE, "memory_cycle": 9.75},
            traceparent=TRACEPARENT,
        )
        other = client.request(
            "POST", "/v1/simulate", {"trace": TRACE, "memory_cycle": 10.25}
        )
        assert other["result"]["cycles"] > 0
        other_id = client.last_trace_id
        assert other_id != TRACE_ID
        spans = _spans_of(client, other_id)
        assert spans
        assert all(e["args"]["trace_id"] == other_id for e in spans)


class TestJoinedViews:
    def test_access_log_lines_carry_the_trace_identity(self, handle, client):
        client.request(
            "POST",
            "/v1/simulate",
            {"trace": TRACE, "memory_cycle": 11.5},
            request_id="traced-req-1",
            traceparent=TRACEPARENT,
        )
        records = read_access_log(handle.server.access_log.path)
        (record,) = [
            r for r in records if r["request_id"] == "traced-req-1"
        ]
        validate_access_log_record(record)
        assert record["trace_id"] == TRACE_ID
        assert len(record["span_id"]) == 16

    def test_metrics_p99_carries_an_exemplar_trace_id(self, client):
        client.request(
            "POST",
            "/v1/simulate",
            {"trace": TRACE, "memory_cycle": 13.5},
            traceparent=TRACEPARENT,
        )
        text = client.metrics_text()
        parse_exposition(text)  # exemplar syntax stays parseable
        p99_lines = [
            line
            for line in text.splitlines()
            if 'quantile="0.99"' in line and 'endpoint="simulate"' in line
        ]
        assert any("trace_id=" in line for line in p99_lines)
