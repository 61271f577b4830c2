"""The asyncio server: connections, drain-then-shutdown, CLI entry.

:class:`ReproServer` owns the listening socket, one coroutine per
connection (persistent HTTP/1.1, one request at a time per connection),
the :class:`~repro.service.batching.MicroBatcher`, and the
:class:`~repro.service.result_cache.ResultCache`.  Shutdown is a
*drain*: :meth:`ReproServer.begin_shutdown` (wired to SIGTERM/SIGINT by
:func:`run_server`, callable directly from tests) closes the listener,
lets every in-flight request finish and be answered — with
``Connection: close`` so clients re-dial elsewhere — force-closes idle
connections, and only then stops the batch worker.

Metrics land in the *process-global* registry by default
(``repro.obs.metrics``): the engine's own instrumentation
(``engine.replay.dispatches``, ``engine.step_fallback.dispatches``,
events-store hits) uses module-global counters, so sharing the registry
is what lets ``GET /v1/stats`` report engine dispatch alongside queue
depth and cache hit ratios in one snapshot.  Counter keys are
partitioned by thread — ``service.batch.*``/``service.queue.*`` from
the event loop, ``service.phase1.*``/``engine.*`` from the single batch
worker — so the shared registry needs no lock.

:class:`ServerThread` runs the whole loop on a daemon thread for tests
and the load generator; ``python -m repro serve`` uses
:func:`run_server` in the foreground.
"""

from __future__ import annotations

import asyncio
import signal
import threading
import time
from dataclasses import dataclass

from repro.obs import live, metrics, tracing
from repro.obs.access_log import AccessLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.span_spool import DEFAULT_BUDGET_BYTES, SpanSpool
from repro.service import disk_cache as disk_cache_mod
from repro.service import http11
from repro.service.app import ServiceApp, StreamBody, error_body
from repro.service.batching import MicroBatcher
from repro.service.disk_cache import DiskResultCache
from repro.service.http11 import HttpError
from repro.service.result_cache import ResultCache


@dataclass
class ServerConfig:
    """Everything tunable about one server instance."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = pick a free port (tests, load generator)
    queue_limit: int = 64
    result_cache_bytes: int = 8 * 1024 * 1024
    default_deadline_s: float = 30.0
    events_memo_entries: int = 8
    max_header_bytes: int = http11.DEFAULT_MAX_HEADER_BYTES
    max_body_bytes: int = http11.DEFAULT_MAX_BODY_BYTES
    drain_grace_s: float = 30.0
    access_log_path: str | None = None
    span_ring_capacity: int = 4096  # 0 disables the server-owned ring
    # Durable span collection: finished spans are appended to a JSONL
    # spool under this directory (see repro.obs.span_spool).  Off by
    # default, and never active while tracing itself is disabled.
    span_spool_dir: str | None = None
    span_spool_bytes: int = DEFAULT_BUDGET_BYTES
    sli_window_s: float = 60.0
    sli_bucket_s: float = 1.0
    profile_max_seconds: float = 10.0  # /v1/debug/profile window cap
    # Idle keep-alive connections are closed after this many seconds
    # without a request (None = never).
    keepalive_timeout_s: float | None = 75.0
    # Admission control: cache-miss simulate work is shed with 429 once
    # the batch queue is at least this deep (None = disabled).
    shed_watermark: int | None = None
    # Fleet identity: stamped into spans, access-log records, and
    # /v1/stats when set (workers get w0..wN-1 from the router).
    worker_id: str | None = None
    # Disk-backed result cache: off unless a directory is configured
    # (or REPRO_RESULT_CACHE_DIR overrides one in).
    disk_cache_dir: str | None = None
    disk_cache_bytes: int = disk_cache_mod.DEFAULT_CAPACITY_BYTES
    # Campaign registry: the /v1/campaigns endpoints are enabled only
    # when a directory is configured (REPRO_CAMPAIGN_DIR overrides the
    # location, not the opt-in).
    campaign_dir: str | None = None


class ReproServer:
    """One listening socket plus its batcher, cache, and connections."""

    def __init__(
        self, config: ServerConfig | None = None, registry: MetricsRegistry | None = None
    ) -> None:
        self.config = config or ServerConfig()
        self._registry_override = registry
        self.registry: MetricsRegistry | None = None
        self.app: ServiceApp | None = None
        self.batcher: MicroBatcher | None = None
        self.result_cache: ResultCache | None = None
        self.disk_cache: DiskResultCache | None = None
        self.campaign_service = None  # set in start() with --campaign-dir
        self._server: asyncio.base_events.Server | None = None
        self._port: int | None = None
        self.window: live.RollingWindow | None = None
        self.access_log: AccessLog | None = None
        self.span_spool: SpanSpool | None = None
        self._installed_tracer: tracing.Tracer | None = None
        self._writers: set[asyncio.StreamWriter] = set()
        self._active_requests = 0
        self._draining = False
        self._shutdown_requested = asyncio.Event()
        self._drained = asyncio.Event()

    @property
    def port(self) -> int:
        """The bound port (meaningful once started; resolves port 0)."""
        assert self._port is not None, "server not started"
        return self._port

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket and start the batch scheduler."""
        self.registry = (
            self._registry_override
            or metrics.current_metrics()
            or metrics.enable_metrics()
        )
        if self.config.worker_id is not None:
            live.set_worker_id(self.config.worker_id)
        self.result_cache = ResultCache(self.config.result_cache_bytes)
        if (
            self.config.disk_cache_dir is not None
            and disk_cache_mod.cache_enabled()
        ):
            self.disk_cache = DiskResultCache(
                disk_cache_mod.resolve_cache_dir(self.config.disk_cache_dir),
                capacity_bytes=self.config.disk_cache_bytes,
            )
        self.batcher = MicroBatcher(
            self.registry,
            max_pending=self.config.queue_limit,
            events_memo_entries=self.config.events_memo_entries,
        )
        self.batcher.start()
        # A server-owned bounded ring keeps span tracing on for the whole
        # run (it feeds /v1/debug/trace) without unbounded growth; an
        # externally installed tracer takes precedence.  The spool is
        # the ring's durable tap and exists only when tracing does —
        # tracing off means no spool, by contract.
        if tracing.current_tracer() is None and self.config.span_ring_capacity > 0:
            if self.config.span_spool_dir:
                self.span_spool = SpanSpool(
                    self._span_spool_dir(),
                    budget_bytes=self.config.span_spool_bytes,
                )
            self._installed_tracer = tracing.install_tracer(
                live.RingTracer(
                    capacity=self.config.span_ring_capacity,
                    sink=(
                        self.span_spool.append
                        if self.span_spool is not None
                        else None
                    ),
                )
            )
        self.window = live.RollingWindow(
            window_s=self.config.sli_window_s,
            bucket_s=self.config.sli_bucket_s,
        )
        if self.config.access_log_path:
            self.access_log = AccessLog(self.config.access_log_path)
        self.app = self._make_app()
        if self.config.campaign_dir is not None:
            # Imported here so servers without campaigns never pay for
            # the campaign package.
            from repro.campaign.registry import (
                CampaignRegistry,
                resolve_registry_dir,
            )
            from repro.campaign.service import CampaignService

            self.campaign_service = CampaignService(
                CampaignRegistry(
                    resolve_registry_dir(self.config.campaign_dir)
                ),
                self.app.resolve_point,
                self.app.classify_point_error_doc,
                self.registry,
            )
            self.app.campaign_service = self.campaign_service
        self._server = await asyncio.start_server(
            self._handle_connection,
            self.config.host,
            self.config.port,
            # readuntil() overruns at the stream limit, which is how the
            # header-block cap in http11.read_request actually triggers.
            limit=self.config.max_header_bytes,
        )
        self._port = self._server.sockets[0].getsockname()[1]

    def _span_spool_dir(self) -> str:
        """Where this process's span spool lives.

        The fleet router overrides this to claim the ``router``
        subdirectory, leaving ``<dir>/w0``.. to the workers it spawns,
        so one ``--span-spool-dir`` fans out into one subdirectory per
        process.
        """
        assert self.config.span_spool_dir is not None
        return self.config.span_spool_dir

    def _make_app(self) -> ServiceApp:
        """Build the request-handling app; the fleet router overrides
        this to swap in its sharding/forwarding app on the same server
        skeleton (see :mod:`repro.service.router`)."""
        assert self.registry is not None
        assert self.batcher is not None
        assert self.result_cache is not None
        return ServiceApp(
            self.registry,
            self.batcher,
            self.result_cache,
            default_deadline_s=self.config.default_deadline_s,
            window=self.window,
            access_log=self.access_log,
            tracer=tracing.current_tracer(),
            is_ready=lambda: not self._draining,
            profile_max_seconds=self.config.profile_max_seconds,
            disk_cache=self.disk_cache,
            shed_watermark=self.config.shed_watermark,
            span_spool=self.span_spool,
        )

    def begin_shutdown(self) -> None:
        """Request a drain (signal handlers, tests); returns immediately."""
        self._shutdown_requested.set()

    async def serve_until_shutdown(self) -> None:
        """Run until :meth:`begin_shutdown`, then drain and stop."""
        await self._shutdown_requested.wait()
        await self._drain()

    async def _drain(self) -> None:
        """Stop accepting, finish in-flight work, stop the batcher."""
        self._draining = True
        assert self._server is not None
        self._server.close()
        await self._server.wait_closed()
        deadline = time.monotonic() + self.config.drain_grace_s
        while self._active_requests and time.monotonic() < deadline:
            await asyncio.sleep(0.01)
        for writer in list(self._writers):  # idle keep-alive connections
            writer.close()
        # Stop background campaigns while the batcher (and, on the
        # router, the fleet) still works: each task checkpoints its
        # partial chunk on the way out, so a drained server resumes
        # exactly where it stopped when the spec is re-submitted.
        if self.campaign_service is not None:
            await self.campaign_service.shutdown()
        assert self.batcher is not None
        await self.batcher.drain()
        if self.access_log is not None:
            self.access_log.close()
        if (
            self._installed_tracer is not None
            and tracing.current_tracer() is self._installed_tracer
        ):
            tracing.disable_tracing()
            self._installed_tracer = None
        if self.span_spool is not None:
            # Seals the active file into a checksummed segment, so a
            # drained server leaves a spool the offline validator
            # accepts end to end.
            self.span_spool.close()
        self._drained.set()

    async def wait_drained(self) -> None:
        """Block until a requested drain has completed."""
        await self._drained.wait()

    # -- connections -------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        loop = asyncio.get_running_loop()
        keepalive = self.config.keepalive_timeout_s
        try:
            while True:
                # Idle keep-alive: a plain timer handle, not wait_for —
                # arming and cancelling it is a heap operation, so the
                # warm hot path never pays for a wrapper task.  When it
                # fires, close() sends a FIN and the pending read lands
                # on the clean-EOF path below.  A client mid-request is
                # unaffected — the timer spans the wait for the *next*
                # request and is disarmed as soon as one is read.
                idle_timer = (
                    loop.call_later(keepalive, writer.close)
                    if keepalive is not None
                    else None
                )
                try:
                    request = await http11.read_request(
                        reader,
                        max_header_bytes=self.config.max_header_bytes,
                        max_body_bytes=self.config.max_body_bytes,
                    )
                except HttpError as error:
                    body = error_body(error.status, error.code, error.message)
                    writer.write(
                        http11.render_response(error.status, body, keep_alive=False)
                    )
                    await writer.drain()
                    return
                except (ConnectionError, asyncio.IncompleteReadError):
                    return  # client vanished mid-request
                finally:
                    if idle_timer is not None:
                        idle_timer.cancel()
                if request is None:
                    return  # clean close (client EOF or idle expiry)
                request_id = live.request_id_from_header(
                    request.headers.get("x-repro-request-id")
                )
                # Trace identity: honour a well-formed inbound
                # traceparent (the router's forward hop), mint a fresh
                # root otherwise.  Malformed headers are discarded
                # whole, mirroring the request-id sanitization.
                trace_context = live.trace_context_from_header(
                    request.headers.get("traceparent")
                )
                self._active_requests += 1
                try:
                    with live.request_context(request_id):
                        with tracing.trace_context(trace_context):
                            with tracing.span(
                                "service.request", path=request.path
                            ):
                                assert self.app is not None
                                status, body, content_type = (
                                    await self.app.handle(request)
                                )
                                if isinstance(body, StreamBody):
                                    # Streams write inside the request
                                    # context and span so mid-stream
                                    # work is attributed like any other;
                                    # they always close the connection
                                    # when done.
                                    await self._write_stream(
                                        writer,
                                        status,
                                        body,
                                        content_type,
                                        request_id,
                                        trace_context[0],
                                    )
                                    return
                finally:
                    self._active_requests -= 1
                keep_alive = request.keep_alive and not self._draining
                try:
                    writer.write(
                        http11.render_response(
                            status,
                            body,
                            keep_alive=keep_alive,
                            content_type=content_type,
                            extra_headers={
                                live.REQUEST_ID_HEADER: request_id,
                                live.TRACE_ID_HEADER: trace_context[0],
                            },
                        )
                    )
                    await writer.drain()
                except ConnectionError:
                    return
                if not keep_alive:
                    return
        finally:
            self._writers.discard(writer)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _write_stream(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: StreamBody,
        content_type: str,
        request_id: str,
        trace_id: str,
    ) -> None:
        """Drain one streaming body as a chunked transfer-encoded response.

        The stream's own accounting wrapper (see
        :meth:`~repro.service.app.ServiceApp.handle`) fires from the
        ``finally`` of the underlying generator, so it runs whether the
        stream completes or the client disconnects mid-way — which is
        why the generator is closed explicitly here, not left to GC.
        """
        writer.write(
            http11.render_stream_head(
                status,
                content_type=content_type,
                extra_headers={
                    live.REQUEST_ID_HEADER: request_id,
                    live.TRACE_ID_HEADER: trace_id,
                },
            )
        )
        stream = body.__aiter__()
        try:
            while True:
                try:
                    chunk = await stream.__anext__()
                except StopAsyncIteration:
                    break
                writer.write(http11.encode_chunk(chunk))
                await writer.drain()
            writer.write(http11.last_chunk())
            await writer.drain()
        except ConnectionError:
            pass  # client went away mid-stream
        except Exception:  # noqa: BLE001 - truncation is the error signal
            # A generator failure after the head is committed cannot
            # become an error envelope; the missing summary line tells
            # the client the stream is truncated.
            pass
        finally:
            aclose = getattr(stream, "aclose", None)
            if aclose is not None:
                try:
                    await aclose()
                except Exception:  # noqa: BLE001 - closing is best-effort
                    pass


def run_server(config: ServerConfig | None = None) -> None:
    """Foreground entry point: serve until SIGTERM/SIGINT, then drain."""
    config = config or ServerConfig()

    async def main() -> None:
        server = ReproServer(config)
        await server.start()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, server.begin_shutdown)
        print(f"repro.service listening on {config.host}:{server.port}")
        await server.serve_until_shutdown()
        print("repro.service drained, bye")

    asyncio.run(main())


class ServerThread:
    """A server on a daemon thread, for tests and the load generator.

    Usage::

        with ServerThread() as handle:
            client = ServiceClient("127.0.0.1", handle.port)
            ...

    ``stop()`` performs the full drain (the SIGTERM path) before the
    thread joins, so anything in flight when the ``with`` block exits is
    still answered.
    """

    def __init__(
        self,
        config: ServerConfig | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.config = config or ServerConfig()
        self.server = ReproServer(self.config, registry=registry)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()

    @property
    def port(self) -> int:
        return self.server.port

    def start(self) -> "ServerThread":
        assert self._thread is None, "already started"
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=10.0):
            raise RuntimeError("service thread failed to start")
        return self

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self._main())
        finally:
            self._loop.close()

    async def _main(self) -> None:
        await self.server.start()
        self._ready.set()
        await self.server.serve_until_shutdown()

    def begin_shutdown(self) -> None:
        """Trigger the drain from any thread without waiting for it."""
        assert self._loop is not None
        self._loop.call_soon_threadsafe(self.server.begin_shutdown)

    def stop(self, timeout: float = 30.0) -> None:
        """Drain and join (idempotent)."""
        if self._thread is None:
            return
        self.begin_shutdown()
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():
            raise RuntimeError("service thread did not drain in time")
        self._thread = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()
