"""The span spool's server lifecycle: seal on drain, pinned off.

Lives in its own module: the server installs a process-global ring
tracer, so these tests need no other module-scoped server holding the
tracer slot while they start and drain their own.
"""

from repro.obs.live import format_traceparent
from repro.obs.span_spool import read_spool, validate_spool
from repro.service import ServerConfig, ServerThread, ServiceClient

TRACE = {"kind": "spec92", "name": "swm256", "instructions": 2000, "seed": 7}
TRACE_ID = "ab" * 16
TRACEPARENT = format_traceparent(TRACE_ID, "cd" * 8)


class TestSpoolLifecycle:
    def test_drained_server_leaves_a_validating_spool(self, tmp_path):
        config = ServerConfig(span_spool_dir=str(tmp_path))
        with ServerThread(config) as handle:
            client = ServiceClient("127.0.0.1", handle.port)
            client.wait_ready()
            client.request(
                "POST",
                "/v1/simulate",
                {"trace": TRACE, "memory_cycle": 5.5},
                traceparent=TRACEPARENT,
            )
            client.close()
        counts = validate_spool(str(tmp_path))
        assert counts["segments"] >= 1  # close() sealed the active file
        names = {r["name"] for r in read_spool(str(tmp_path))}
        assert "service.request" in names
        traced = [
            r
            for r in read_spool(str(tmp_path))
            if r.get("args", {}).get("trace_id") == TRACE_ID
        ]
        assert traced

    def test_tracing_off_means_no_spool_by_contract(self, tmp_path):
        spool_dir = tmp_path / "spans"
        config = ServerConfig(
            span_ring_capacity=0,  # tracing disabled
            span_spool_dir=str(spool_dir),
        )
        with ServerThread(config) as handle:
            client = ServiceClient("127.0.0.1", handle.port)
            client.wait_ready()
            client.simulate(trace=TRACE, memory_cycle=6.75)
            # The trace id still propagates (header echo works without
            # a ring) but nothing records.
            assert client.last_trace_id
            document = client.debug_trace()
            assert document["enabled"] is False
            client.close()
        assert not spool_dir.exists()
