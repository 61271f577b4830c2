"""Request routing, envelopes, and the result cache for the service.

:class:`ServiceApp` is the transport-free core of the server: it maps a
parsed :class:`~repro.service.http11.Request` to a status code and a
JSON body, with every body carrying a ``schema`` tag
(``repro.service.response/1``, ``repro.service.error/1`` or
``repro.service.stats/1``) so captured payloads validate offline via
``python -m repro.obs.validate --service-response``.

Dispatch is two-tier, mirroring the engine split the service fronts:

* the analytic endpoints (``execution-time``, ``tradeoff``, ``ranking``,
  ``advise``) are closed-form float arithmetic and run inline on the
  event loop;
* ``simulate`` first consults the content-addressed
  :class:`~repro.service.result_cache.ResultCache` (a hit costs one
  dict lookup and returns the *identical* result bytes), then the
  optional disk-backed
  :class:`~repro.service.disk_cache.DiskResultCache` (a hit is promoted
  into memory), and otherwise awaits the micro-batch scheduler under
  the request's deadline;
* ``sweep`` streams a whole parameter grid as chunked JSONL — one line
  per grid point, produced through the same caches and batcher in
  bounded chunks, so a million-point grid never materialises in memory
  (see :class:`StreamBody` and ``docs/SERVICE.md``).

The ``result`` sub-object of a simulate response is byte-identical to
:func:`repro.service.queries.timing_result_dict` rendered through
:func:`repro.util.jsonout.dump_json` — the ``cached`` flag lives in the
envelope precisely so caching can never change the result bytes.
"""

from __future__ import annotations

import asyncio
import json
import time
from collections import deque
from typing import Any

from collections.abc import Callable

from repro.obs import live, tracing
from repro.obs.access_log import AccessLog, access_record
from repro.obs.live import (
    RollingWindow,
    render_prometheus,
    trace_tail_document,
)
from repro.obs.metrics import MetricsRegistry, percentile
from repro.obs.schemas import (
    SERVICE_ERROR_SCHEMA,
    SERVICE_RESPONSE_SCHEMA,
    SERVICE_STATS_SCHEMA,
    SERVICE_SWEEP_SCHEMA,
    SchemaError,
)
from repro.service import queries
from repro.service import schemas as request_schemas
from repro.service.batching import MicroBatcher, QueueFullError
from repro.service.disk_cache import DiskResultCache
from repro.service.http11 import HttpError, Request
from repro.service.result_cache import ResultCache
from repro.util.jsonout import dump_json, dump_json_line

#: Per-endpoint latency samples retained for the stats percentiles.
LATENCY_WINDOW = 2048

_ANALYTIC = {
    "execution-time": (
        request_schemas.validate_execution_time,
        queries.execution_time_query,
    ),
    "tradeoff": (request_schemas.validate_tradeoff, queries.tradeoff_query),
    "ranking": (request_schemas.validate_ranking, queries.ranking_query),
    "advise": (request_schemas.validate_advise, queries.advise_query),
}

_POST_ENDPOINTS = frozenset(_ANALYTIC) | {"simulate", "sweep", "campaigns"}
_GET_ENDPOINTS = frozenset(
    {
        "health",
        "stats",
        "healthz",
        "readyz",
        "metrics",
        "debug-trace",
        "debug-spans",
        "debug-profile",
        "campaigns",
        "campaign-status",
        "campaign-results",
    }
)

#: Operational endpoints served outside the ``/v1/`` namespace, where
#: load balancers and scrapers conventionally look for them.
_OPS_PATHS = {"/healthz": "healthz", "/readyz": "readyz", "/metrics": "metrics"}

#: Default response content type; ``/metrics`` overrides it with the
#: Prometheus text exposition type.
JSON_CONTENT_TYPE = "application/json"
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def error_body(status: int, code: str, message: str) -> bytes:
    """The structured error envelope every failure path emits."""
    return dump_json(
        {
            "schema": SERVICE_ERROR_SCHEMA,
            "error": {"code": code, "message": message, "status": status},
        }
    ).encode("utf-8")


class StreamBody:
    """A response body produced incrementally (chunked JSONL).

    :meth:`ServiceApp.handle` returns one of these instead of ``bytes``
    for streaming endpoints; the connection handler in
    :mod:`repro.service.server` then writes a chunked transfer-encoded
    response, draining the async iterator one chunk at a time.  The
    per-request accounting (metrics, SLI window, access log) is wrapped
    around the iterator and fires when the stream finishes — including
    when the client disconnects mid-stream and the generator is closed.
    """

    def __init__(self, chunks: Any, content_type: str = "application/x-ndjson") -> None:
        self._chunks = chunks
        self.content_type = content_type

    def __aiter__(self) -> Any:
        return self._chunks.__aiter__()


class ServiceApp:
    """Routes parsed requests to queries; transport-independent."""

    def __init__(
        self,
        registry: MetricsRegistry,
        batcher: MicroBatcher,
        result_cache: ResultCache,
        default_deadline_s: float,
        profile_max_seconds: float,
        window: RollingWindow | None = None,
        access_log: AccessLog | None = None,
        tracer: tracing.Tracer | None = None,
        is_ready: Callable[[], bool] | None = None,
        disk_cache: DiskResultCache | None = None,
        shed_watermark: int | None = None,
        span_spool: Any = None,
    ) -> None:
        self.registry = registry
        self.batcher = batcher
        self.result_cache = result_cache
        self.default_deadline_s = default_deadline_s
        self.window = window
        self.access_log = access_log
        self.tracer = tracer
        self.is_ready = is_ready if is_ready is not None else (lambda: True)
        self.profile_max_seconds = profile_max_seconds
        self.disk_cache = disk_cache
        self.shed_watermark = shed_watermark
        self.span_spool = span_spool
        #: Assigned by the server after construction when it was started
        #: with ``--campaign-dir`` (a CampaignService); None => the
        #: campaign endpoints answer 503 ``campaigns_disabled``.
        self.campaign_service: Any = None
        self._latency_ms: dict[str, deque[float]] = {}

    # -- entry point ------------------------------------------------------

    async def handle(
        self, request: Request
    ) -> tuple[int, bytes | StreamBody, str]:
        """One request in, one (status, body, content type) out; never raises.

        The body is ``bytes`` for ordinary endpoints and a
        :class:`StreamBody` for the streaming ones (``/v1/sweep``); a
        streaming body defers the per-request accounting to the moment
        the stream completes, so the access log records the true
        wall-clock of the whole stream.
        """
        endpoint = self._endpoint_of(request.path)
        started = time.perf_counter()
        error_code: str | None = None
        content_type = JSON_CONTENT_TYPE
        body: bytes | StreamBody
        try:
            status, body, content_type = await self._dispatch(endpoint, request)
        except HttpError as error:
            error_code = error.code
            status, body = error.status, error_body(
                error.status, error.code, error.message
            )
        except SchemaError as error:
            error_code = "schema_error"
            status, body = 400, error_body(400, "schema_error", str(error))
        except queries.InvalidQuery as error:
            error_code = "invalid_params"
            status, body = 400, error_body(400, "invalid_params", str(error))
        except QueueFullError as error:
            error_code = "backpressure"
            status, body = 429, error_body(429, "backpressure", str(error))
        except asyncio.TimeoutError:
            error_code = "deadline_exceeded"
            status, body = 504, error_body(
                504, "deadline_exceeded", "request deadline elapsed"
            )
        except Exception as error:  # noqa: BLE001 - last-resort boundary
            error_code = "internal_error"
            status, body = 500, error_body(
                500, "internal_error", f"{type(error).__name__}: {error}"
            )
        if isinstance(body, StreamBody):
            return (
                status,
                self._accounted_stream(request, endpoint, status, started, body),
                content_type,
            )
        self._account(request, endpoint, status, started, error_code)
        return status, body, content_type

    def _account(
        self,
        request: Request,
        endpoint: str | None,
        status: int,
        started: float,
        error_code: str | None,
    ) -> None:
        """Per-request accounting: counters, SLI window, access log."""
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        label = endpoint or "unknown"
        trace_context = tracing.current_trace_context()
        self.registry.inc("service.requests", endpoint=label, status=status)
        self.registry.observe("service.latency_ms", elapsed_ms, endpoint=label)
        self._latency_ms.setdefault(
            label, deque(maxlen=LATENCY_WINDOW)
        ).append(elapsed_ms)
        if self.window is not None:
            self.window.record(
                label,
                status,
                elapsed_ms,
                trace_id=trace_context[0] if trace_context else None,
            )
        if self.access_log is not None:
            annotations = live.current_annotations()
            deadline_ms = annotations.get("deadline_ms")
            if isinstance(deadline_ms, (int, float)):
                annotations["deadline_left_ms"] = round(
                    deadline_ms - elapsed_ms, 3
                )
            worker = live.current_worker_id()
            if worker is not None:
                annotations.setdefault("worker", worker)
            if trace_context is not None:
                # The trace identity joins this line to its span tree:
                # span_id is the request's root span (when tracing is
                # recording), trace_id greps across every process the
                # request touched.
                annotations.setdefault("trace_id", trace_context[0])
                if trace_context[1]:
                    annotations.setdefault("span_id", trace_context[1])
            self.access_log.log(
                access_record(
                    request_id=live.current_request_id() or "-",
                    method=request.method,
                    path=request.path,
                    endpoint=label,
                    status=status,
                    latency_ms=elapsed_ms,
                    error_code=error_code,
                    **annotations,
                )
            )

    def _accounted_stream(
        self,
        request: Request,
        endpoint: str | None,
        status: int,
        started: float,
        body: StreamBody,
    ) -> StreamBody:
        """Wrap a stream so accounting fires when it finishes (or dies)."""

        async def run() -> Any:
            error_code: str | None = None
            try:
                async for chunk in body:
                    yield chunk
            except Exception:
                error_code = "stream_error"
                raise
            finally:
                self._account(request, endpoint, status, started, error_code)

        return StreamBody(run(), content_type=body.content_type)

    @staticmethod
    def _endpoint_of(path: str) -> str | None:
        path = path.partition("?")[0]
        ops = _OPS_PATHS.get(path)
        if ops is not None:
            return ops
        if path == "/v1/debug/trace":
            return "debug-trace"
        if path == "/v1/debug/spans":
            return "debug-spans"
        if path == "/v1/debug/profile":
            return "debug-profile"
        if path == "/v1/campaigns":
            return "campaigns"
        if path.startswith("/v1/campaigns/"):
            rest = path[len("/v1/campaigns/") :]
            if rest.endswith("/results"):
                return "campaign-results"
            return "campaign-status"
        if not path.startswith("/v1/"):
            return None
        return path[len("/v1/") :] or None

    async def _dispatch(
        self, endpoint: str | None, request: Request
    ) -> tuple[int, bytes | StreamBody, str]:
        if endpoint is None or endpoint not in (_POST_ENDPOINTS | _GET_ENDPOINTS):
            raise HttpError(404, "not_found", f"no such endpoint {request.path!r}")
        allowed = {
            method
            for method, members in (
                ("GET", _GET_ENDPOINTS),
                ("POST", _POST_ENDPOINTS),
            )
            if endpoint in members
        }
        if request.method not in allowed:
            raise HttpError(
                405,
                "method_not_allowed",
                f"{endpoint} requires {' or '.join(sorted(allowed))}, "
                f"got {request.method}",
            )
        if endpoint == "health":
            return 200, self._success(endpoint, {"status": "ok"}), JSON_CONTENT_TYPE
        if endpoint == "healthz":
            # Liveness: the process is up and the loop responds — true
            # even while draining, so orchestrators don't kill a server
            # that is still answering in-flight work.
            body = dump_json({"status": "ok"}).encode("utf-8")
            return 200, body, JSON_CONTENT_TYPE
        if endpoint == "readyz":
            if not self.is_ready():
                raise HttpError(
                    503, "draining", "server is draining; send new work elsewhere"
                )
            body = dump_json({"status": "ready"}).encode("utf-8")
            return 200, body, JSON_CONTENT_TYPE
        if endpoint == "metrics":
            return 200, await self._metrics_body(), METRICS_CONTENT_TYPE
        if endpoint == "debug-trace":
            return 200, await self._trace_body(request.path), JSON_CONTENT_TYPE
        if endpoint == "debug-spans":
            return 200, self._spans_body(request.path), JSON_CONTENT_TYPE
        if endpoint == "debug-profile":
            return (
                200,
                await self._debug_profile_body(request.path),
                JSON_CONTENT_TYPE,
            )
        if endpoint == "stats":
            return 200, await self._stats_body(), JSON_CONTENT_TYPE
        if endpoint == "campaigns":
            if request.method == "GET":
                return (
                    200,
                    self._success(
                        endpoint,
                        {"campaigns": self._campaigns_service().list()},
                    ),
                    JSON_CONTENT_TYPE,
                )
            return 200, self._campaigns_submit(request), JSON_CONTENT_TYPE
        if endpoint == "campaign-status":
            campaign = self._campaign_of(request.path)
            live.annotate(campaign=campaign.id[:12])
            return (
                200,
                self._success(
                    endpoint, self._campaigns_service().describe(campaign.id)
                ),
                JSON_CONTENT_TYPE,
            )
        if endpoint == "campaign-results":
            campaign = self._campaign_of(request.path)
            live.annotate(campaign=campaign.id[:12])
            return (
                200,
                StreamBody(self._campaign_result_chunks(campaign)),
                "application/x-ndjson",
            )
        with tracing.span("service.parse", endpoint=endpoint):
            params = self._parse_params(request.body)
        if endpoint == "sweep":
            return 200, self._sweep(params), "application/x-ndjson"
        if endpoint == "simulate":
            status, body = await self._simulate(params)
            return status, body, JSON_CONTENT_TYPE
        validate, query = _ANALYTIC[endpoint]
        with tracing.span("service.dispatch", endpoint=endpoint):
            validated = validate(params)
            result = query(validated)
        with tracing.span("service.serialize", endpoint=endpoint):
            return 200, self._success(endpoint, result), JSON_CONTENT_TYPE

    @staticmethod
    def _parse_params(body: bytes) -> Any:
        if not body:
            return {}
        try:
            payload = json.loads(body)
        except ValueError as error:  # bad JSON, bad UTF-8, too many digits
            raise HttpError(
                400, "invalid_json", f"request body is not JSON: {error}"
            ) from None
        if not isinstance(payload, dict):
            raise HttpError(
                400, "invalid_json", "request body must be a JSON object"
            )
        unknown = sorted(set(payload) - {"params"})
        if unknown:
            raise HttpError(
                400,
                "invalid_json",
                f"unknown top-level keys {unknown}; send {{'params': ...}}",
            )
        return payload.get("params", {})

    # -- the simulation endpoint ------------------------------------------

    def _lookup(self, key: str) -> bytes | None:
        """One point's cached result bytes: memory, then disk (a disk hit
        is promoted into memory); counts the hit or the miss."""
        payload = self.result_cache.get(key)
        if payload is None and self.disk_cache is not None:
            payload = self.disk_cache.get(key)
            if payload is not None:
                self.result_cache.put(key, payload)
        if payload is None:
            self.registry.inc("service.result_cache.misses")
        else:
            self.registry.inc("service.result_cache.hits")
        return payload

    async def _compute(self, key: str, validated: dict[str, Any]) -> dict[str, Any]:
        """One missed point through the batcher under its deadline; the
        result is stored in both cache tiers before it is returned."""
        result = await asyncio.wait_for(
            self.batcher.submit(validated),
            timeout=self._deadline_s_of(validated),
        )
        payload = dump_json(result).encode("utf-8")
        self.result_cache.put(key, payload)
        if self.disk_cache is not None:
            self.disk_cache.put(key, payload)
        return result

    def _deadline_s_of(self, validated: dict[str, Any]) -> float:
        deadline_ms = validated["deadline_ms"]
        return (
            deadline_ms / 1000.0
            if deadline_ms is not None
            else self.default_deadline_s
        )

    async def _simulate(self, params: Any) -> tuple[int, bytes]:
        with tracing.span("service.dispatch", endpoint="simulate"):
            validated = request_schemas.validate_simulate(params)
            key = queries.result_key_of(validated)
            payload = self._lookup(key)
        if payload is not None:
            live.annotate(cache="hit")
            with tracing.span("service.serialize", endpoint="simulate"):
                return 200, self._success(
                    "simulate", json.loads(payload), cached=True
                )
        if (
            self.shed_watermark is not None
            and self.batcher.queue_depth >= self.shed_watermark
        ):
            # Admission control: above the watermark a cache miss is shed
            # *before* it joins the queue, so queued work keeps meeting
            # its deadlines instead of everyone timing out together.
            self.registry.inc("service.admission.shed")
            raise HttpError(
                429,
                "shed",
                f"queue depth at admission watermark "
                f"({self.shed_watermark}); retry with backoff",
            )
        live.annotate(
            cache="miss", batched=True, deadline_ms=validated["deadline_ms"]
        )
        with tracing.span("service.batch_wait", key=key[:12]):
            result = await self._compute(key, validated)
        with tracing.span("service.serialize", endpoint="simulate"):
            return 200, self._success("simulate", result, cached=False)

    # -- the sweep endpoint ------------------------------------------------

    #: Grid points submitted to the batcher at once per sweep stream.
    #: Bounded so a sweep can never occupy the whole admission queue;
    #: one chunk also forms one coalescing opportunity for the batcher.
    SWEEP_CHUNK = 32

    def _sweep(self, params: Any) -> StreamBody:
        """``POST /v1/sweep``: validate eagerly, then stream the grid.

        Validation happens before the stream head is committed, so a bad
        request is still an ordinary 400 envelope.  Everything after the
        first byte of the body is point-level: a point that fails mid-
        stream becomes an ``error`` line, never a broken connection.
        """
        with tracing.span("service.dispatch", endpoint="sweep"):
            validated = request_schemas.validate_sweep(params)
            total = request_schemas.sweep_point_count(validated)
        live.annotate(sweep_points=total)
        return StreamBody(self._sweep_lines(validated, total))

    async def _sweep_lines(self, validated: dict[str, Any], total: int) -> Any:
        """The stream: header line, :meth:`_sweep_chunks`, summary line."""
        header = {
            "schema": SERVICE_SWEEP_SCHEMA,
            "points": total,
            "grid": request_schemas.grid_shape(validated),
        }
        yield (dump_json_line(header) + "\n").encode("utf-8")
        errors = 0
        async for lines, failed in self._sweep_chunks(validated):
            errors += failed
            yield lines
        summary = {"done": True, "errors": errors, "points": total}
        yield (dump_json_line(summary) + "\n").encode("utf-8")

    async def _sweep_chunks(self, validated: dict[str, Any]) -> Any:
        """Yield ``(JSONL lines, error count)`` until the grid is done.

        Here: bounded chunks through the caches and the batcher.  The
        fleet router overrides this to fan the grid out to its workers.
        """
        chunk_size = max(1, min(self.SWEEP_CHUNK, self.batcher.max_pending))
        batch: list[tuple[int, dict[str, Any], dict[str, Any]]] = []
        for item in request_schemas.sweep_grid(validated):
            batch.append(item)
            if len(batch) >= chunk_size:
                yield await self._sweep_chunk(batch)
                batch = []
        if batch:
            yield await self._sweep_chunk(batch)

    async def _sweep_chunk(
        self, batch: list[tuple[int, dict[str, Any], dict[str, Any]]]
    ) -> tuple[bytes, int]:
        """Resolve one bounded chunk of grid points; returns (lines, errors).

        Cache hits resolve synchronously; the misses are submitted to
        the micro-batcher *together* so shared (trace, geometry) keys in
        the chunk coalesce into shared phase-1 work, exactly as
        concurrent ``/v1/simulate`` requests would.
        """
        resolved: list[tuple[int, dict[str, Any], Any, bool]] = []
        pending: list[tuple[int, dict[str, Any], str, dict[str, Any]]] = []
        for index, point, params in batch:
            key = queries.result_key_of(params)
            payload = self._lookup(key)
            if payload is not None:
                resolved.append((index, point, json.loads(payload), True))
            else:
                pending.append((index, point, key, params))
        if pending:
            with tracing.span("service.batch_wait", points=len(pending)):
                outcomes = await asyncio.gather(
                    *(self._compute(key, params) for _, _, key, params in pending),
                    return_exceptions=True,
                )
            resolved.extend(
                (index, point, outcome, False)
                for (index, point, _, _), outcome in zip(pending, outcomes)
            )
        lines: list[str] = []
        failed = 0
        for index, point, outcome, cached in sorted(resolved):
            if isinstance(outcome, BaseException):
                failed += 1
                record: dict[str, Any] = {
                    "error": queries.point_error(outcome),
                    "index": index,
                    "point": point,
                }
                self.registry.inc("service.sweep.errors")
            else:
                record = {
                    "cached": cached,
                    "index": index,
                    "point": point,
                    "result": outcome,
                }
            self.registry.inc("service.sweep.points")
            lines.append(dump_json_line(record) + "\n")
        return "".join(lines).encode("utf-8"), failed

    # -- the campaign endpoints ---------------------------------------------

    def _campaigns_service(self) -> Any:
        if self.campaign_service is None:
            raise HttpError(
                503,
                "campaigns_disabled",
                "server started without --campaign-dir",
            )
        return self.campaign_service

    def _campaign_of(self, path: str) -> Any:
        """Resolve ``/v1/campaigns/{ref}[/results]`` to a campaign."""
        rest = path.partition("?")[0][len("/v1/campaigns/") :]
        ref = rest[: -len("/results")] if rest.endswith("/results") else rest
        if not ref:
            raise HttpError(404, "not_found", "empty campaign reference")
        try:
            return self._campaigns_service().find(ref)
        except KeyError as error:
            raise HttpError(404, "not_found", str(error)) from None

    def _campaigns_submit(self, request: Request) -> bytes:
        service = self._campaigns_service()
        with tracing.span("service.parse", endpoint="campaigns"):
            params = self._parse_params(request.body)
        if not isinstance(params, dict) or "spec" not in params:
            raise HttpError(
                400,
                "invalid_json",
                "campaign submission must send {'params': {'spec': ...}}",
            )
        with tracing.span("service.dispatch", endpoint="campaigns"):
            view = service.submit(params["spec"])
        live.annotate(campaign=view["campaign"][:12])
        return self._success("campaigns", view)

    async def _campaign_result_chunks(self, campaign: Any) -> Any:
        """The campaign's results stream as chunked JSONL.

        The registry's generator is synchronous (state + artifacts are
        local files); yielding control between lines keeps a long stream
        from monopolising the event loop.
        """
        for line in campaign.result_lines():
            yield line
            await asyncio.sleep(0)

    async def resolve_point(self, validated: dict[str, Any]) -> dict[str, Any]:
        """One campaign point through the interactive caches + batcher.

        The per-point resolver behind :class:`~repro.campaign.service
        .CampaignService` — returns the bare result object (the envelope
        is a transport concern; artifacts store canonical result bytes).
        The router overrides this to forward to the owning worker.
        """
        key = queries.result_key_of(validated)
        payload = self._lookup(key)
        if payload is not None:
            return json.loads(payload)
        return await self._compute(key, validated)

    # -- live observability -------------------------------------------------

    async def _metrics_body(self) -> bytes:
        """``GET /metrics``: the Prometheus text exposition."""
        gauges = {
            "service.queue.depth_now": float(self.batcher.queue_depth),
            "service.queue.limit": float(self.batcher.max_pending),
            "service.result_cache.entries": float(len(self.result_cache)),
            "service.result_cache.bytes": float(self.result_cache.size_bytes),
            "service.result_cache.capacity_bytes": float(
                self.result_cache.capacity_bytes
            ),
        }
        if self.disk_cache is not None:
            gauges["service.disk_cache.entries"] = float(len(self.disk_cache))
            gauges["service.disk_cache.bytes"] = float(
                self.disk_cache.size_bytes
            )
        return self._render_metrics(self.registry.snapshot(), gauges)

    def _render_metrics(
        self, snapshot: dict[str, Any], gauges: dict[str, float]
    ) -> bytes:
        """Render ``/metrics`` from a registry snapshot and gauges, adding
        readiness, the campaign gauges and the SLI window (shared with
        the fleet router's merged exposition)."""
        gauges["service.ready"] = 1.0 if self.is_ready() else 0.0
        if self.campaign_service is not None:
            campaign_stats = self.campaign_service.stats()
            gauges["service.campaigns.registered"] = float(
                campaign_stats["campaigns"]
            )
            gauges["service.campaigns.running"] = float(
                campaign_stats["running"]
            )
            gauges["service.campaigns.complete"] = float(
                campaign_stats["complete"]
            )
        window_summary = (
            self.window.summary() if self.window is not None else None
        )
        return render_prometheus(snapshot, window_summary, gauges).encode(
            "utf-8"
        )

    @staticmethod
    def _trace_query(path: str) -> tuple[int | None, str | None]:
        """Parse the shared ``?last=N&trace_id=T`` trace-export query."""
        last: int | None = None
        trace_id: str | None = None
        for item in path.partition("?")[2].split("&"):
            name, _, value = item.partition("=")
            if not value:
                continue
            if name == "last":
                try:
                    last = int(value)
                except ValueError:
                    raise HttpError(
                        400,
                        "bad_query",
                        f"last must be an integer, got {value!r}",
                    ) from None
            elif name == "trace_id":
                trace_id = value
        return last, trace_id

    async def _trace_body(self, path: str) -> bytes:
        """``GET /v1/debug/trace?last=N&trace_id=T``: the span ring tail."""
        return dump_json(self._trace_document(path)).encode("utf-8")

    def _trace_document(self, path: str) -> dict[str, Any]:
        """The span ring tail a ``?last=N&trace_id=T`` query selects."""
        last, trace_id = self._trace_query(path)
        tracer = (
            self.tracer if self.tracer is not None else tracing.current_tracer()
        )
        return trace_tail_document(tracer, last, trace_id=trace_id)

    def _spans_body(self, path: str) -> bytes:
        """``GET /v1/debug/spans``: this process's ring, collector-shaped.

        Same document as ``/v1/debug/trace`` plus the worker identity —
        the route a fleet router scrapes from each worker to assemble the
        merged cross-process timeline (the ``clock`` block carried by the
        document is what lets the router place this process's
        ``perf_counter`` timestamps on the shared wall clock).
        """
        document = self._trace_document(path)
        document["worker"] = live.current_worker_id()
        return dump_json(document).encode("utf-8")

    async def _debug_profile_body(self, path: str) -> bytes:
        """``GET /v1/debug/profile?seconds=N&hz=M``: on-demand sampling.

        Runs one :class:`~repro.obs.profile.SamplingProfiler` window over
        the live process and returns the ``repro.obs.profile/1`` document
        (the raw artifact, like ``/v1/debug/trace`` — not the service
        envelope, so it validates offline as-is).  The event loop keeps
        serving during the window; concurrent requests therefore show up
        in the samples, which is the point.  A second window while one is
        active is 409; a draining server refuses new windows with 503.
        """
        from repro.obs.profile import (
            DEFAULT_HZ,
            ProfilerActiveError,
            SamplingProfiler,
        )

        seconds, hz = 1.0, DEFAULT_HZ
        for item in path.partition("?")[2].split("&"):
            name, _, value = item.partition("=")
            if not value:
                continue
            if name == "seconds":
                try:
                    seconds = float(value)
                except ValueError:
                    raise HttpError(
                        400,
                        "bad_query",
                        f"seconds must be a number, got {value!r}",
                    ) from None
            elif name == "hz":
                try:
                    hz = int(value)
                except ValueError:
                    raise HttpError(
                        400,
                        "bad_query",
                        f"hz must be an integer, got {value!r}",
                    ) from None
        if not 0 < seconds <= self.profile_max_seconds:
            raise HttpError(
                400,
                "bad_query",
                f"seconds must be within (0, {self.profile_max_seconds:g}], "
                f"got {seconds:g}",
            )
        if not 1 <= hz <= 1000:
            raise HttpError(
                400, "bad_query", f"hz must be within [1, 1000], got {hz}"
            )
        if not self.is_ready():
            raise HttpError(
                503,
                "draining",
                "server is draining; not starting a profile window",
            )
        try:
            profiler = SamplingProfiler(hz=hz).start()
        except ProfilerActiveError as error:
            raise HttpError(409, "profile_active", str(error)) from None
        live.annotate(profile_id=profiler.id)
        try:
            await asyncio.sleep(seconds)
        finally:
            profiler.stop()
        return dump_json(profiler.document()).encode("utf-8")

    # -- envelopes ---------------------------------------------------------

    @staticmethod
    def _success(endpoint: str, result: Any, cached: bool | None = None) -> bytes:
        envelope: dict[str, Any] = {
            "schema": SERVICE_RESPONSE_SCHEMA,
            "endpoint": endpoint,
            "result": result,
        }
        if cached is not None:
            envelope["cached"] = cached
        return dump_json(envelope).encode("utf-8")

    async def _stats_body(self) -> bytes:
        """``GET /v1/stats``."""
        return dump_json(self._stats()).encode("utf-8")

    def _stats(self) -> dict[str, Any]:
        """The ``GET /v1/stats`` document (the fleet router starts from
        it and swaps in its merged sections)."""
        latency = {}
        for endpoint, samples in sorted(self._latency_ms.items()):
            values = list(samples)
            latency[endpoint] = {
                "count": len(values),
                "p50_ms": percentile(values, 50.0),
                "p99_ms": percentile(values, 99.0),
            }
        stats: dict[str, Any] = {
            "schema": SERVICE_STATS_SCHEMA,
            **self.registry.snapshot(),
            "queue": {
                "depth": self.batcher.queue_depth,
                "limit": self.batcher.max_pending,
            },
            "result_cache": {
                "entries": len(self.result_cache),
                "bytes": self.result_cache.size_bytes,
                "capacity_bytes": self.result_cache.capacity_bytes,
                "hits": self.result_cache.hits,
                "misses": self.result_cache.misses,
                "evictions": self.result_cache.evictions,
                "hit_rate": self.result_cache.hit_rate,
            },
            "latency": latency,
        }
        if self.disk_cache is not None:
            stats["disk_cache"] = self.disk_cache.stats()
        if self.span_spool is not None:
            stats["span_spool"] = self.span_spool.stats()
        if self.campaign_service is not None:
            stats["campaigns"] = self.campaign_service.stats()
        worker = live.current_worker_id()
        if worker is not None:
            stats["worker"] = worker
        return stats
