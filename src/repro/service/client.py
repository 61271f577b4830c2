"""Blocking client for :mod:`repro.service` (stdlib ``http.client``).

One :class:`ServiceClient` holds one persistent connection, so a
closed-loop load-generator thread maps one-to-one onto a server-side
connection coroutine.  Methods mirror the endpoints; each returns the
decoded ``result`` object and raises :class:`ServiceError` (carrying
the structured error envelope) on any non-200 answer.

Every client also keeps :class:`ClientStats` — per-call wall time (the
client-side view, including the network and any reconnect), a retry
counter for the drain-time reconnect path, and an error count — which
``benchmarks/bench_service.py`` surfaces next to the server-side
latency so the two views can be compared.  The server's
``X-Repro-Request-Id`` echo is captured per call as
:attr:`ServiceClient.last_request_id`, and callers can pin their own id
by passing ``request_id=`` to :meth:`ServiceClient.request`.

Busy-server backoff is **opt-in**: constructed with ``busy_retries=N``,
a client answers 429 (backpressure/shed) and 503 (draining) with capped
exponential backoff and deterministic jitter — the jitter stream is
seeded (``backoff_seed``), so a retry schedule is reproducible run to
run.  The default stays ``busy_retries=0`` because immediate 429s are
themselves part of the service's contract (the robustness suite pins
that a full queue answers *without* delay).
"""

from __future__ import annotations

import http.client
import json
import random
import socket
import time
from collections import deque
from collections.abc import Iterator
from typing import Any

from repro.obs.live import REQUEST_ID_HEADER, TRACE_ID_HEADER, TRACEPARENT_HEADER
from repro.obs.metrics import percentile

#: Client-side latency samples retained for the stats percentiles.
CLIENT_LATENCY_WINDOW = 4096

#: Statuses that mean "healthy but refusing new work right now" — the
#: only ones the opt-in backoff loop retries.
BUSY_STATUSES = frozenset({429, 503})

#: Default first-retry delay for the opt-in backoff loop.
DEFAULT_BACKOFF_BASE_S = 0.05

#: Default ceiling on any single backoff sleep.
DEFAULT_BACKOFF_CAP_S = 2.0


def backoff_delays(
    base_s: float, cap_s: float, seed: int
) -> Iterator[float]:
    """The capped-exponential, deterministically jittered delay stream.

    Attempt *k* sleeps ``min(cap, base * 2**k) * u`` where ``u`` is
    drawn uniformly from [0.5, 1.0) by a :class:`random.Random` seeded
    with ``seed`` — "equal jitter"-style: never more than the cap,
    never less than half the nominal delay, and the exact sequence is
    reproducible from the seed.
    """
    rng = random.Random(seed)
    attempt = 0
    while True:
        nominal = min(cap_s, base_s * (2.0**attempt))
        yield nominal * rng.uniform(0.5, 1.0)
        attempt += 1


class ServiceError(Exception):
    """A non-200 answer, with the server's structured error envelope."""

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(f"{status} {code}: {message}")
        self.status = status
        self.code = code
        self.message = message


class ClientStats:
    """Per-client call accounting: wall times, retries, errors."""

    def __init__(self) -> None:
        self.calls = 0
        self.retries = 0
        self.errors = 0
        self.backoffs = 0
        self.backoff_wait_s = 0.0
        self._latency_ms: deque[float] = deque(maxlen=CLIENT_LATENCY_WINDOW)

    def record(self, latency_ms: float, error: bool) -> None:
        """Fold one finished round trip into the stats."""
        self.calls += 1
        if error:
            self.errors += 1
        self._latency_ms.append(latency_ms)

    def latency_percentile(self, q: float) -> float:
        """Client-side latency percentile over the retained window."""
        return percentile(list(self._latency_ms), q)

    def latencies(self) -> list[float]:
        """The retained per-call wall times, in arrival order."""
        return list(self._latency_ms)

    def summary(self) -> dict[str, Any]:
        """JSON-ready view (what ``bench_service.py`` embeds)."""
        values = list(self._latency_ms)
        return {
            "calls": self.calls,
            "retries": self.retries,
            "errors": self.errors,
            "backoffs": self.backoffs,
            "backoff_wait_s": round(self.backoff_wait_s, 6),
            "latency_ms": {
                "p50": round(percentile(values, 50.0), 3) if values else 0.0,
                "p99": round(percentile(values, 99.0), 3) if values else 0.0,
            },
        }


class ServiceClient:
    """One keep-alive connection to a running service."""

    def __init__(
        self,
        host: str,
        port: int,
        timeout: float = 60.0,
        busy_retries: int = 0,
        backoff_base_s: float = DEFAULT_BACKOFF_BASE_S,
        backoff_cap_s: float = DEFAULT_BACKOFF_CAP_S,
        backoff_seed: int = 0,
    ) -> None:
        self.host = host
        self.port = port
        self.timeout = timeout
        self.busy_retries = busy_retries
        self.backoff_base_s = backoff_base_s
        self.backoff_cap_s = backoff_cap_s
        self.backoff_seed = backoff_seed
        self.stats = ClientStats()
        self.last_request_id: str | None = None
        #: Trace id the server minted (or adopted) for the last call,
        #: from its ``X-Repro-Trace-Id`` echo — hand it straight to
        #: ``debug_trace(trace_id=...)`` to pull that request's tree.
        self.last_trace_id: str | None = None
        self._conn: http.client.HTTPConnection | None = None
        self._sleep = time.sleep  # swappable in tests

    # -- plumbing ---------------------------------------------------------

    def _connection(self) -> http.client.HTTPConnection:
        if self._conn is None:
            self._conn = http.client.HTTPConnection(
                self.host, self.port, timeout=self.timeout
            )
        return self._conn

    def close(self) -> None:
        """Drop the connection (safe to call repeatedly)."""
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def _round_trip(
        self,
        method: str,
        path: str,
        body: str | None,
        headers: dict[str, str],
    ) -> tuple[http.client.HTTPResponse, bytes]:
        conn = self._connection()
        try:
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            payload = response.read()
        except (ConnectionError, http.client.HTTPException, socket.timeout):
            # A draining server answers with Connection: close; retry the
            # request once on a fresh connection before giving up.
            self.close()
            self.stats.retries += 1
            conn = self._connection()
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            payload = response.read()
        if response.getheader("Connection", "keep-alive").lower() == "close":
            self.close()
        self.last_request_id = response.getheader(REQUEST_ID_HEADER)
        self.last_trace_id = response.getheader(TRACE_ID_HEADER)
        return response, payload

    def request(
        self,
        method: str,
        path: str,
        params: dict[str, Any] | None = None,
        request_id: str | None = None,
        traceparent: str | None = None,
    ) -> dict[str, Any]:
        """One logical call; returns the decoded response envelope.

        With ``busy_retries > 0``, a 429/503 answer is retried up to
        that many times with capped-exponential, seeded-jitter backoff
        (see :func:`backoff_delays`); every other failure — and the
        default configuration — surfaces immediately.  ``traceparent``
        pins the request's W3C trace context (clients embedded in a
        traced pipeline pass :func:`repro.obs.live.current_traceparent`);
        without it the server mints a fresh trace id, echoed back as
        :attr:`last_trace_id` either way.
        """
        if self.busy_retries <= 0:
            return self._request_once(method, path, params, request_id, traceparent)
        delays = backoff_delays(
            self.backoff_base_s, self.backoff_cap_s, self.backoff_seed
        )
        attempts = 0
        while True:
            try:
                return self._request_once(
                    method, path, params, request_id, traceparent
                )
            except ServiceError as error:
                if (
                    error.status not in BUSY_STATUSES
                    or attempts >= self.busy_retries
                ):
                    raise
                delay = next(delays)
                self.stats.backoffs += 1
                self.stats.backoff_wait_s += delay
                self._sleep(delay)
                attempts += 1

    def _request_once(
        self,
        method: str,
        path: str,
        params: dict[str, Any] | None = None,
        request_id: str | None = None,
        traceparent: str | None = None,
    ) -> dict[str, Any]:
        """One round trip; returns the decoded response envelope."""
        body = None
        headers: dict[str, str] = {}
        if request_id is not None:
            headers[REQUEST_ID_HEADER] = request_id
        if traceparent is not None:
            headers[TRACEPARENT_HEADER] = traceparent
        if params is not None:
            body = json.dumps({"params": params})
            headers["Content-Type"] = "application/json"
        started = time.perf_counter()
        error = True
        try:
            response, payload = self._round_trip(method, path, body, headers)
            envelope = json.loads(payload)
            if response.status != 200:
                envelope_error = envelope.get("error", {})
                raise ServiceError(
                    response.status,
                    envelope_error.get("code", "unknown"),
                    envelope_error.get(
                        "message", payload.decode("utf-8", "replace")
                    ),
                )
            error = False
            return envelope
        finally:
            self.stats.record(
                (time.perf_counter() - started) * 1000.0, error=error
            )

    def get_text(
        self, path: str, request_id: str | None = None
    ) -> tuple[int, str]:
        """Fetch a text endpoint (``/metrics``); returns (status, text)."""
        headers = {REQUEST_ID_HEADER: request_id} if request_id else {}
        started = time.perf_counter()
        error = True
        try:
            response, payload = self._round_trip("GET", path, None, headers)
            error = response.status != 200
            return response.status, payload.decode("utf-8")
        finally:
            self.stats.record(
                (time.perf_counter() - started) * 1000.0, error=error
            )

    # -- endpoints --------------------------------------------------------

    def wait_ready(self, timeout: float = 10.0) -> None:
        """Poll ``/v1/health`` until the server answers (or time out)."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                self.health()
                return
            except (OSError, http.client.HTTPException):
                self.close()
                if time.monotonic() >= deadline:
                    raise
                time.sleep(0.05)

    def health(self) -> dict[str, Any]:
        return self.request("GET", "/v1/health")["result"]

    def healthz(self) -> dict[str, Any]:
        """Liveness probe (stays 200 during drain)."""
        return self.request("GET", "/healthz")

    def readyz(self) -> dict[str, Any]:
        """Readiness probe (raises ``ServiceError(503)`` during drain)."""
        return self.request("GET", "/readyz")

    def metrics_text(self) -> str:
        """The Prometheus exposition body of ``GET /metrics``."""
        status, text = self.get_text("/metrics")
        if status != 200:
            raise ServiceError(status, "metrics_failed", text)
        return text

    def debug_trace(
        self, last: int | None = None, trace_id: str | None = None
    ) -> dict[str, Any]:
        """The span export (``GET /v1/debug/trace?last=N&trace_id=T``).

        Against a fleet router this is the *merged* cross-process
        document — one Perfetto process track per fleet member, flow
        events on the forward edges; ``trace_id`` (typically
        :attr:`last_trace_id`) narrows it to one request's tree.
        """
        query = []
        if last is not None:
            query.append(f"last={last}")
        if trace_id is not None:
            query.append(f"trace_id={trace_id}")
        path = "/v1/debug/trace"
        if query:
            path += "?" + "&".join(query)
        return self.request("GET", path)

    def debug_profile(
        self, seconds: float | None = None, hz: int | None = None
    ) -> dict[str, Any]:
        """One on-demand sampling window (``GET /v1/debug/profile``).

        Blocks for ``seconds`` while the server samples itself; returns
        the ``repro.obs.profile/1`` document.  Raises
        ``ServiceError(409)`` if a window is already running.
        """
        query = []
        if seconds is not None:
            query.append(f"seconds={seconds:g}")
        if hz is not None:
            query.append(f"hz={hz}")
        path = "/v1/debug/profile"
        if query:
            path += "?" + "&".join(query)
        return self.request("GET", path)

    def stats_envelope(self) -> dict[str, Any]:
        """The full stats envelope (snapshot + queue + caches + latency)."""
        return self.request("GET", "/v1/stats")

    def execution_time(self, **params: Any) -> dict[str, Any]:
        return self.request("POST", "/v1/execution-time", params)["result"]

    def tradeoff(self, **params: Any) -> dict[str, Any]:
        return self.request("POST", "/v1/tradeoff", params)["result"]

    def ranking(self, **params: Any) -> dict[str, Any]:
        return self.request("POST", "/v1/ranking", params)["result"]

    def advise(self, **params: Any) -> dict[str, Any]:
        return self.request("POST", "/v1/advise", params)["result"]

    def simulate(self, **params: Any) -> dict[str, Any]:
        """The full simulate envelope (``result`` plus ``cached``)."""
        return self.request("POST", "/v1/simulate", params)

    def sweep(self, **params: Any) -> Iterator[dict[str, Any]]:
        """Stream ``POST /v1/sweep``: yields decoded JSONL records.

        The first record is the stream header
        (``repro.service.sweep/1``), then one record per grid point as
        the server (or the fleet's shards) completes it, then the
        ``{"done": true}`` summary.  A stream that ends without the
        summary was truncated and raises ``ServiceError(0,
        "truncated")``; a cut connection raises its transport error.
        Nothing is retried here: a campaign run ``--via-service``
        recovers by re-planning from its own state.  Runs on a dedicated
        connection — the server closes streaming connections when done —
        so the client's keep-alive connection stays usable for other
        calls.  Lazily evaluated: the request is sent, and any non-200
        raised, at the first ``next()``.
        """
        records = self._stream(
            "POST", "/v1/sweep", json.dumps({"params": params})
        )
        for record in records:
            if "done" in record:
                # The server closes the stream after the summary; reading
                # to that end is what records the call as a success.
                for _ in records:
                    pass
                yield record
                return
            yield record
        raise ServiceError(
            0, "truncated", "sweep stream ended without a summary"
        )

    def _stream(
        self, method: str, path: str, body: str | None = None
    ) -> Iterator[dict[str, Any]]:
        """One streamed (chunked JSONL) response on a dedicated
        connection, one decoded record per yield; a non-200 answer
        raises :class:`ServiceError` with the server's envelope."""
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        headers = {"Content-Type": "application/json"} if body else {}
        started = time.perf_counter()
        error = True
        try:
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            self.last_request_id = response.getheader(REQUEST_ID_HEADER)
            if response.status != 200:
                envelope_error = {}
                try:
                    envelope_error = json.loads(response.read()).get("error", {})
                except (ValueError, http.client.HTTPException):
                    pass
                raise ServiceError(
                    response.status,
                    envelope_error.get("code", "unknown"),
                    envelope_error.get("message", f"{method} {path} failed"),
                )
            while True:
                # http.client decodes the chunked framing; each read
                # returns payload bytes, and the service frames one JSON
                # record per line.
                line = response.readline()
                if not line:
                    break
                line = line.strip()
                if line:
                    yield json.loads(line)
            error = False
        finally:
            conn.close()
            self.stats.record(
                (time.perf_counter() - started) * 1000.0, error=error
            )

    # -- campaigns ---------------------------------------------------------

    def submit_campaign(self, spec: dict[str, Any]) -> dict[str, Any]:
        """``POST /v1/campaigns``: submit (or resume) a campaign spec."""
        return self.request("POST", "/v1/campaigns", {"spec": spec})["result"]

    def campaigns(self) -> list[dict[str, Any]]:
        """``GET /v1/campaigns``: every registered campaign's status."""
        return self.request("GET", "/v1/campaigns")["result"]["campaigns"]

    def campaign_status(self, ref: str) -> dict[str, Any]:
        """``GET /v1/campaigns/{ref}``: one campaign's progress view."""
        return self.request("GET", f"/v1/campaigns/{ref}")["result"]

    def campaign_results(self, ref: str) -> Iterator[dict[str, Any]]:
        """``GET /v1/campaigns/{ref}/results``: stream the results JSONL
        (header, terminal points so far, summary) on a dedicated
        connection, one decoded record per yield."""
        return self._stream("GET", f"/v1/campaigns/{ref}/results")

    def wait_campaign(
        self, ref: str, timeout: float = 60.0, poll_s: float = 0.2
    ) -> dict[str, Any]:
        """Poll a campaign's status until complete (or time out)."""
        deadline = time.monotonic() + timeout
        while True:
            view = self.campaign_status(ref)
            if view["progress"]["complete"]:
                return view
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"campaign {ref!r} still has "
                    f"{view['progress']['pending']} pending points "
                    f"after {timeout:g}s"
                )
            time.sleep(poll_s)
