"""The client's sweep stream under scripted disconnects.

A scripted TCP server plays back one canned HTTP response per
connection — truncated streams, half-written JSON lines, error
statuses — so every disconnect shape is deterministic.  The contract
under test: the client never retries a sweep.  A stream without its
summary raises ``ServiceError(0, "truncated")``, a torn line raises its
transport error, and a server verdict raises with its status; a campaign
run ``--via-service`` recovers by re-planning from its own state
(``tests/campaign/test_via_service.py``).  A whole stream is read to its
end and counted as a success.
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
        # Closing alone does not wake a thread blocked in accept() on
        # Linux; shutdown() does, so the serving thread ends with its test.
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self.sock.close()
        self.thread.join(timeout=10.0)
        assert not self.thread.is_alive(), "scripted server thread leaked"


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


class TestDefaultOff:
    def test_whole_sweep_counts_as_a_success(self, flaky):
        server, client = flaky([_ok(_lines(HEADER, *POINTS, SUMMARY))])
        records = list(client.sweep())
        validate_sweep_stream(records)
        assert records[-1] == SUMMARY
        assert server.connections == 1
        assert client.stats.calls == 1
        assert client.stats.errors == 0

    def test_half_written_json_line_is_a_transport_failure(self, flaky):
        server, client = flaky(
            [_ok(_lines(HEADER, POINTS[0]) + b'{"index": 1, "res')]
        )
        with pytest.raises(ValueError):
            list(client.sweep())
        assert server.connections == 1
        assert client.stats.errors == 1

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
            list(client.sweep())
        assert excinfo.value.status == 429
        # The structured rejection consumed exactly one connection.
        assert server.connections == 1
