"""Client-side mid-stream sweep resume (``sweep(resume_retries=N)``).

A scripted TCP server plays back one canned HTTP response per
connection — truncated streams, half-written JSON lines, error
statuses — so every disconnect shape is deterministic.  The contract
under test: with retries the caller sees each point index exactly once
and a summary whose error count matches the error lines actually
yielded (keeping the merged stream valid); without retries a truncated
stream still raises.
"""

import json
import socket
import threading

import pytest

from repro.obs.schemas import validate_sweep_stream
from repro.service import ServiceClient, ServiceError

HEADER = {
    "schema": "repro.service.sweep/1",
    "points": 4,
    "trace": {"kind": "spec92"},
}
POINTS = [
    {"index": 0, "point": {"cache_index": 0}, "result": {"cycles": 10.0}},
    {"index": 1, "point": {"cache_index": 0}, "error": {"code": "deadline_exceeded", "message": "too slow", "status": 504}},
    {"index": 2, "point": {"cache_index": 1}, "result": {"cycles": 30.0}},
    {"index": 3, "point": {"cache_index": 1}, "result": {"cycles": 40.0}},
]
SUMMARY = {"done": True, "errors": 1, "points": 4}


def _lines(*records):
    return b"".join(
        json.dumps(record).encode() + b"\n" for record in records
    )


def _ok(body):
    return (
        b"HTTP/1.1 200 OK\r\n"
        b"Content-Type: application/x-ndjson\r\n"
        b"Connection: close\r\n\r\n" + body
    )


def _error(status, code):
    body = json.dumps({"error": {"code": code, "message": code}}).encode()
    head = (
        f"HTTP/1.1 {status} Nope\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: close\r\n\r\n"
    )
    return head.encode() + body


class ScriptedServer:
    """Serves one canned response per accepted connection, in order."""

    def __init__(self, responses):
        self.responses = list(responses)
        self.connections = 0
        self.sock = socket.socket()
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(8)
        self.port = self.sock.getsockname()[1]
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        while True:
            try:
                conn, _addr = self.sock.accept()
            except OSError:
                return
            with conn:
                conn.settimeout(5.0)
                data = b""
                try:
                    while b"\r\n\r\n" not in data:
                        chunk = conn.recv(65536)
                        if not chunk:
                            break
                        data += chunk
                    # Drain the body before replying: closing a socket
                    # that still holds unread input sends a RST, which
                    # can overtake the response on its way out.
                    head, _, body = data.partition(b"\r\n\r\n")
                    length = 0
                    for line in head.split(b"\r\n")[1:]:
                        name, _, value = line.partition(b":")
                        if name.strip().lower() == b"content-length":
                            length = int(value)
                    while len(body) < length:
                        chunk = conn.recv(65536)
                        if not chunk:
                            break
                        body += chunk
                    response = (
                        self.responses.pop(0) if self.responses else _ok(b"")
                    )
                    self.connections += 1
                    conn.sendall(response)
                except OSError:
                    continue

    def close(self):
        try:
            self.sock.close()
        except OSError:
            pass


@pytest.fixture
def flaky(request):
    servers = []

    def start(responses):
        server = ScriptedServer(responses)
        servers.append(server)
        return server, ServiceClient("127.0.0.1", server.port, timeout=5.0)

    yield start
    for server in servers:
        server.close()


class TestResume:
    def test_truncated_stream_resumes_and_dedupes(self, flaky):
        server, client = flaky(
            [
                # First attempt dies after two points, no summary.
                _ok(_lines(HEADER, POINTS[0], POINTS[1])),
                # The re-issued request replays the whole grid (served
                # from the result caches on a real server) and finishes.
                _ok(_lines(HEADER, *POINTS, SUMMARY)),
            ]
        )
        records = list(client.sweep(resume_retries=1, caches=[{}, {}]))
        assert server.connections == 2
        assert client.stats.retries == 1
        # One header, each index exactly once, one summary — a valid
        # stream despite the mid-flight reconnect.
        validate_sweep_stream(records)
        assert [r.get("index") for r in records[1:-1]] == [0, 1, 2, 3]
        assert records[-1] == {"done": True, "errors": 1, "points": 4}

    def test_half_written_json_line_is_a_transport_failure(self, flaky):
        server, client = flaky(
            [
                _ok(_lines(HEADER, POINTS[0]) + b'{"index": 1, "res'),
                _ok(_lines(HEADER, *POINTS, SUMMARY)),
            ]
        )
        records = list(client.sweep(resume_retries=1))
        assert server.connections == 2
        validate_sweep_stream(records)

    def test_errors_rewritten_to_match_yielded_lines(self, flaky):
        """The error point streams in attempt 1; attempt 2's summary
        still says 1 — and after dedupe so must the merged stream's."""
        _server, client = flaky(
            [
                _ok(_lines(HEADER, POINTS[1])),
                _ok(
                    _lines(
                        HEADER,
                        POINTS[0],
                        POINTS[1],
                        POINTS[2],
                        POINTS[3],
                        SUMMARY,
                    )
                ),
            ]
        )
        records = list(client.sweep(resume_retries=1))
        error_lines = sum(1 for r in records if "error" in r and "index" in r)
        assert error_lines == 1
        assert records[-1]["errors"] == 1
        validate_sweep_stream(records)

    def test_retries_exhausted_reraises(self, flaky):
        server, client = flaky(
            [
                _ok(_lines(HEADER, POINTS[0])),
                _ok(_lines(HEADER, POINTS[1])),
            ]
        )
        with pytest.raises(ServiceError) as excinfo:
            list(client.sweep(resume_retries=1))
        assert excinfo.value.code == "truncated"
        assert server.connections == 2


class TestDefaultOff:
    def test_truncation_raises_without_retries(self, flaky):
        server, client = flaky([_ok(_lines(HEADER, POINTS[0]))])
        with pytest.raises(ServiceError, match="without a summary"):
            list(client.sweep())
        assert server.connections == 1

    def test_http_errors_are_not_retried(self, flaky):
        server, client = flaky(
            [
                _error(429, "overloaded"),
                _ok(_lines(HEADER, *POINTS, SUMMARY)),
            ]
        )
        with pytest.raises(ServiceError) as excinfo:
            list(client.sweep(resume_retries=3))
        assert excinfo.value.status == 429
        # The structured rejection consumed exactly one connection —
        # resume is for transport failures, not server verdicts.
        assert server.connections == 1
