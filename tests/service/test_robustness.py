"""The robustness contract: deadlines, backpressure, drain, bad input.

Each test gets its own server — these tests deliberately wedge, drain,
or overflow it.
"""

import http.client
import json
import socket
import threading
import time

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.service import ServerConfig, ServerThread, ServiceClient, ServiceError
from tests.service.conftest import Phase1Gate

SLOW_TRACE = {"kind": "matmul", "n": 64}  # ~1s+ of cold phase-1 extraction
QUICK_TRACE = {"kind": "spec92", "name": "swm256", "instructions": 2000, "seed": 7}


def start_server(**overrides):
    config = ServerConfig(**overrides)
    return ServerThread(config, registry=MetricsRegistry()).start()


def wait_until(predicate, timeout_s: float = 10.0) -> None:
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


def raw_request(port, payload: bytes, path="/v1/simulate", method="POST"):
    """Send arbitrary bytes as a request body, return (status, envelope)."""
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30.0)
    try:
        try:
            conn.request(method, path, body=payload)
        except (BrokenPipeError, ConnectionResetError):
            # The server rejects an oversized body from its headers alone
            # and may close before the client finishes sending it; the
            # error response is already on the wire.
            pass
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


class TestDeadlines:
    def test_deadline_timeout_is_a_structured_error(self):
        handle = start_server()
        try:
            client = ServiceClient("127.0.0.1", handle.port)
            client.wait_ready()
            with pytest.raises(ServiceError) as excinfo:
                client.simulate(trace=SLOW_TRACE, deadline_ms=25.0)
            assert excinfo.value.status == 504
            assert excinfo.value.code == "deadline_exceeded"
            # The server survives: the abandoned compute finishes in the
            # background and the connection stays usable.
            assert client.health() == {"status": "ok"}
            client.close()
        finally:
            handle.stop()

    def test_deadline_only_cancels_its_own_request(self):
        handle = start_server()
        try:
            client = ServiceClient("127.0.0.1", handle.port)
            client.wait_ready()
            outcome = {}

            def doomed():
                c = ServiceClient("127.0.0.1", handle.port)
                try:
                    c.simulate(trace=SLOW_TRACE, deadline_ms=25.0)
                    outcome["doomed"] = "completed"
                except ServiceError as error:
                    outcome["doomed"] = error.code
                finally:
                    c.close()

            thread = threading.Thread(target=doomed)
            thread.start()
            survivor = client.simulate(trace=QUICK_TRACE)
            thread.join()
            assert outcome["doomed"] == "deadline_exceeded"
            assert survivor["result"]["cycles"] > 0
            client.close()
        finally:
            handle.stop()


class TestBackpressure:
    def test_full_queue_answers_429_not_hangs(self):
        # queue_limit=1 and a gated phase 1: the first request is held
        # computing, the second must bounce immediately.
        handle = start_server(queue_limit=1)
        gate = Phase1Gate.install(handle.server)
        try:
            first_result = {}

            def first():
                c = ServiceClient("127.0.0.1", handle.port)
                try:
                    first_result["envelope"] = c.simulate(trace=QUICK_TRACE)
                finally:
                    c.close()

            client = ServiceClient("127.0.0.1", handle.port)
            client.wait_ready()
            thread = threading.Thread(target=first)
            thread.start()
            assert gate.entered.wait(10.0)  # first request now computing
            started = time.monotonic()
            with pytest.raises(ServiceError) as excinfo:
                client.simulate(trace=QUICK_TRACE)
            elapsed = time.monotonic() - started
            assert excinfo.value.status == 429
            assert excinfo.value.code == "backpressure"
            assert elapsed < 0.4  # rejected without waiting on the first
            gate.release()
            thread.join()
            assert first_result["envelope"]["result"]["cycles"] > 0
            client.close()
        finally:
            gate.release()
            handle.stop()


class TestDrainOnShutdown:
    def test_in_flight_requests_answered_then_sockets_close(self):
        handle = start_server()
        gate = Phase1Gate.install(handle.server)
        outcome = {}

        def in_flight():
            c = ServiceClient("127.0.0.1", handle.port)
            try:
                outcome["envelope"] = c.simulate(trace=QUICK_TRACE)
            except Exception as error:  # pragma: no cover - surfaced below
                outcome["error"] = error
            finally:
                c.close()

        probe = ServiceClient("127.0.0.1", handle.port)
        probe.wait_ready()
        probe.close()
        thread = threading.Thread(target=in_flight)
        thread.start()
        assert gate.entered.wait(10.0)  # request now held in phase 1
        # The SIGTERM path: drain, then join.  The request is released
        # only once the drain has begun, so it is answered mid-drain.
        stopper = threading.Thread(target=handle.stop)
        stopper.start()
        try:
            wait_until(lambda: not handle.server.app.is_ready())
        finally:
            gate.release()
        stopper.join(timeout=60.0)
        assert not stopper.is_alive()
        thread.join()
        assert "error" not in outcome
        assert outcome["envelope"]["result"]["cycles"] > 0
        # After the drain the listener is gone.
        with pytest.raises(OSError):
            socket.create_connection(("127.0.0.1", handle.server.port), timeout=1.0)

    def test_stop_after_a_finished_drain_is_a_no_op(self):
        # The race behind an intermittent failure of the test below: its
        # cleanup stop() can run after the drain it began has closed the
        # server's event loop.
        handle = start_server()
        handle.begin_shutdown()
        handle._thread.join(timeout=60.0)
        handle.stop()

    def test_readyz_flips_during_drain_while_in_flight_completes(self):
        """During the SIGTERM drain window the server is alive but not
        ready: ``/readyz`` answers 503 (``draining``), ``/healthz`` stays
        200, and the request held in phase 1 still completes.
        """
        handle = start_server()
        gate = Phase1Gate.install(handle.server)
        outcome = {}

        def in_flight():
            c = ServiceClient("127.0.0.1", handle.port)
            try:
                outcome["envelope"] = c.simulate(trace=QUICK_TRACE)
            except Exception as error:  # pragma: no cover - surfaced below
                outcome["error"] = error
            finally:
                c.close()

        # The listener closes when the drain starts, so the probes must
        # ride keep-alive connections established while still serving.
        probe_ready = http.client.HTTPConnection(
            "127.0.0.1", handle.port, timeout=10.0
        )
        probe_health = http.client.HTTPConnection(
            "127.0.0.1", handle.port, timeout=10.0
        )
        try:
            for probe in (probe_ready, probe_health):
                probe.request("GET", "/readyz")
                response = probe.getresponse()
                assert response.status == 200
                assert json.loads(response.read()) == {"status": "ready"}

            thread = threading.Thread(target=in_flight)
            thread.start()
            assert gate.entered.wait(10.0)  # request now held in phase 1
            handle.begin_shutdown()  # the SIGTERM path, without joining
            wait_until(lambda: not handle.server.app.is_ready())

            probe_ready.request("GET", "/readyz")
            response = probe_ready.getresponse()
            envelope = json.loads(response.read())
            assert response.status == 503
            assert envelope["error"]["code"] == "draining"

            probe_health.request("GET", "/healthz")
            response = probe_health.getresponse()
            assert response.status == 200
            assert json.loads(response.read()) == {"status": "ok"}

            gate.release()
            thread.join()
            assert "error" not in outcome
            assert outcome["envelope"]["result"]["cycles"] > 0
        finally:
            gate.release()
            probe_ready.close()
            probe_health.close()
            handle.stop()

    def test_idle_keep_alive_connections_do_not_block_drain(self):
        handle = start_server()
        client = ServiceClient("127.0.0.1", handle.port)
        client.wait_ready()  # leaves an idle keep-alive connection open
        started = time.monotonic()
        handle.stop(timeout=10.0)
        assert time.monotonic() - started < 5.0
        client.close()


class TestMalformedInput:
    @pytest.fixture()
    def server(self):
        handle = start_server()
        client = ServiceClient("127.0.0.1", handle.port)
        client.wait_ready()
        yield handle
        client.close()
        handle.stop()

    def test_invalid_json_body(self, server):
        status, envelope = raw_request(server.port, b"{not json")
        assert status == 400
        assert envelope["error"]["code"] == "invalid_json"

    def test_non_object_body(self, server):
        status, envelope = raw_request(server.port, b"[1, 2, 3]")
        assert status == 400
        assert envelope["error"]["code"] == "invalid_json"

    def test_unknown_top_level_key(self, server):
        status, envelope = raw_request(server.port, b'{"prams": {}}')
        assert status == 400
        assert "params" in envelope["error"]["message"]

    def test_schema_error_carries_json_path(self, server):
        payload = json.dumps(
            {"params": {"trace": {"kind": "spec92", "name": "doom"}}}
        ).encode()
        status, envelope = raw_request(server.port, payload)
        assert status == 400
        assert envelope["error"]["code"] == "schema_error"
        assert "$.params.trace.name" in envelope["error"]["message"]

    @pytest.mark.parametrize(
        "path, body, code, message",
        [
            (
                "/v1/execution-time",
                b'{"params": {"hit_ratio": 0.9, "instructions": Infinity}}',
                "schema_error",
                "$.params.instructions: must be a finite number",
            ),
            (
                "/v1/simulate",
                b'{"params": {"memory_cycle": Infinity}}',
                "schema_error",
                "$.params.memory_cycle: must be a finite number",
            ),
            (
                "/v1/simulate",
                b'{"params": {"memory_cycle": NaN}}',
                "schema_error",
                "$.params.memory_cycle: must be a finite number",
            ),
            (
                "/v1/simulate",
                b'{"params": {"memory_cycle": 1' + b"0" * 400 + b"}}",
                "schema_error",
                "$.params.memory_cycle: must be a finite number",
            ),
            (
                "/v1/simulate",
                b'{"params": {"bus_width": ' + b"9" * 5001 + b"}}",
                "invalid_json",
                "request body is not JSON: ",
            ),
            # Finite inputs that overflow the model.
            (
                "/v1/execution-time",
                b'{"params": {"hit_ratio": 0.9, "instructions": 1e308, '
                b'"memory_cycle": 1e308}}',
                "invalid_params",
                "non-finite result: result.read_miss_stall_cycles is inf",
            ),
            (
                "/v1/simulate",
                b'{"params": {"memory_cycle": 1e308}}',
                "invalid_params",
                "non-finite result: result.cycles is inf",
            ),
            (
                "/v1/tradeoff",
                b'{"params": {"feature": "doubling-bus", '
                b'"base_hit_ratio": 0.9, "memory_cycle": 1e308}}',
                "invalid_params",
                "non-finite result: result.miss_ratio_of_misses is nan",
            ),
            (
                "/v1/ranking",
                b'{"params": {"base_hit_ratio": 0.9, "betas": [1e308]}}',
                "invalid_params",
                "non-finite result: result.hit_ratio_traded.doubling-bus[0] is nan",
            ),
            (
                "/v1/advise",
                b'{"params": {"memory_cycle": 1e308}}',
                "invalid_params",
                "non-finite result: result.recommendations[0].hit_ratio_value is nan",
            ),
        ],
        ids=[
            "infinity-200",
            "infinity-500",
            "nan",
            "401-digits",
            "5001-digits",
            "overflow-execution-time",
            "overflow-simulate",
            "overflow-tradeoff",
            "overflow-ranking",
            "overflow-advise",
        ],
    )
    def test_unrepresentable_numbers_are_a_400(self, server, path, body, code, message):
        status, envelope = raw_request(server.port, body, path=path)
        assert status == 400
        assert envelope["error"]["code"] == code
        assert envelope["error"]["message"].startswith(message)

    def test_unphysical_params_rejected_not_crashing(self, server):
        # Structurally valid but domain-invalid: pipelined turnaround
        # longer than the memory cycle is rejected by the domain layer.
        payload = json.dumps(
            {"params": {"memory_cycle": 2.0, "pipelined_q": 100.0}}
        ).encode()
        status, envelope = raw_request(server.port, payload)
        assert status == 400
        assert envelope["error"]["code"] in ("invalid_params", "schema_error")

    def test_oversized_body_is_bounded(self, server):
        status, envelope = raw_request(server.port, b" " * (2 * 1024 * 1024))
        assert status == 413
        assert envelope["error"]["code"] == "body_too_large"

    def test_unsupported_method_on_known_path(self, server):
        status, envelope = raw_request(server.port, b"{}", method="PUT")
        assert status == 405


class TestKeepaliveTimeout:
    def test_idle_connection_closed_after_timeout(self):
        handle = start_server(keepalive_timeout_s=0.3)
        try:
            conn = http.client.HTTPConnection(
                "127.0.0.1", handle.port, timeout=10.0
            )
            conn.request("GET", "/v1/health")
            assert conn.getresponse().read()  # first request is served
            # The server closes the idle connection quietly: the raw
            # socket reads EOF instead of another response.
            sock = conn.sock
            sock.settimeout(5.0)
            assert sock.recv(64) == b""
            conn.close()
            # A fresh connection is served normally.
            client = ServiceClient("127.0.0.1", handle.port)
            assert client.health() == {"status": "ok"}
            client.close()
        finally:
            handle.stop()

    def test_active_connection_survives_within_timeout(self):
        handle = start_server(keepalive_timeout_s=1.0)
        try:
            client = ServiceClient("127.0.0.1", handle.port)
            client.wait_ready()
            for _ in range(3):
                time.sleep(0.2)  # idle, but under the timeout each time
                assert client.health() == {"status": "ok"}
            assert client.stats.retries == 0  # one connection throughout
            client.close()
        finally:
            handle.stop()

    def test_timeout_disabled_with_none(self):
        handle = start_server(keepalive_timeout_s=None)
        try:
            client = ServiceClient("127.0.0.1", handle.port)
            client.wait_ready()
            time.sleep(0.5)
            assert client.health() == {"status": "ok"}
            assert client.stats.retries == 0
            client.close()
        finally:
            handle.stop()


class TestAdmissionControl:
    def test_watermark_sheds_cache_miss_work(self):
        """At the watermark, a cache-miss simulate is refused *before*
        joining the queue — 429 with the dedicated "shed" code."""
        handle = start_server(shed_watermark=0)
        try:
            client = ServiceClient("127.0.0.1", handle.port)
            client.wait_ready()
            with pytest.raises(ServiceError) as excinfo:
                client.simulate(trace=QUICK_TRACE)
            assert excinfo.value.status == 429
            assert excinfo.value.code == "shed"
            # Analytic work is never shed — it doesn't queue.
            assert client.execution_time(hit_ratio=0.9)["cpi"] > 0
            stats = client.stats_envelope()
            assert stats["counters"]["service.admission.shed"] >= 1
            client.close()
        finally:
            handle.stop()

    def test_backoff_client_retries_shed_deterministically(self):
        """The opt-in backoff loop pairs with admission control: a
        perpetually shedding server exhausts the budget on the seeded
        schedule."""
        handle = start_server(shed_watermark=0)
        try:
            client = ServiceClient(
                "127.0.0.1", handle.port, busy_retries=2, backoff_seed=5
            )
            waited = []
            client._sleep = waited.append
            client.wait_ready()
            with pytest.raises(ServiceError) as excinfo:
                client.simulate(trace=QUICK_TRACE)
            assert excinfo.value.code == "shed"
            assert client.stats.backoffs == 2
            from repro.service.client import backoff_delays
            import itertools
            expected = list(itertools.islice(
                backoff_delays(client.backoff_base_s, client.backoff_cap_s, 5), 2
            ))
            assert waited == expected
            client.close()
        finally:
            handle.stop()

    def test_no_watermark_means_no_shedding(self):
        handle = start_server()  # shed_watermark defaults to None
        try:
            client = ServiceClient("127.0.0.1", handle.port)
            client.wait_ready()
            assert client.simulate(trace=QUICK_TRACE)["cached"] is False
            client.close()
        finally:
            handle.stop()
