"""Sharded multi-process serving fleet: router, workers, supervision.

``python -m repro serve --workers N`` (N > 1) turns the single-process
server into a fleet:

* the **router** process owns the listening socket and speaks the same
  HTTP/1.1 the single server does — clients cannot tell the difference;
* N **worker** processes (plain ``ReproServer`` instances, spawned as
  ``python -m repro serve --workers 1 --worker-id wK``) each own a
  batcher, an engine, and a result cache, and announce their kernel-
  assigned port on stdout exactly as the foreground server does;
* ``/v1/simulate`` is forwarded to the worker that owns the request's
  **events-store key** (the (trace, geometry) identity batch groups
  coalesce on) under a consistent-hash ring
  (:class:`~repro.service.shard.HashRing`) — the same key always lands
  on the same worker, so phase-1 extractions and result-cache entries
  concentrate instead of duplicating N ways;
* ``/v1/sweep`` is sharded by geometry: each worker receives the
  sub-grid of cache specs it owns, streams it back, and the router
  re-multiplexes the shard streams into one chunked JSONL response,
  rewriting local point indices to global ones on the fly;
* ``/v1/stats`` and ``/metrics`` merge every worker's snapshot into one
  document, re-keying worker counters with a ``worker=<name>`` label;
  the analytic and debug endpoints run in the router process itself;
* a **supervisor** task restarts dead workers into the *same* ring slot
  (slot names ``w0..wN-1`` are stable), so a crash moves no keys — the
  restarted worker simply re-owns its range, re-warming from the shared
  disk cache when one is configured.

Ring slots are named, not addressed: the ring maps keys to slot names
and the fleet maps names to live processes, which is what makes restart
a no-op for placement and ``--workers 1`` degrade to today's behaviour
(``run_fleet`` doesn't even build a router for N=1).
"""

from __future__ import annotations

import asyncio
import json
import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.obs import live, tracing
from repro.obs.live import QuantileSketch, render_prometheus, trace_tail_document
from repro.obs.metrics import percentile
from repro.obs.schemas import SERVICE_STATS_SCHEMA, SERVICE_SWEEP_SCHEMA
from repro.service import http11
from repro.service import queries
from repro.service import schemas as request_schemas
from repro.service.app import (
    JSON_CONTENT_TYPE,
    METRICS_CONTENT_TYPE,
    ServiceApp,
    StreamBody,
)
from repro.service.http11 import HttpError
from repro.service.server import ReproServer, ServerConfig
from repro.service.shard import HashRing, worker_names
from repro.util.jsonout import dump_json, dump_json_line

#: The "listening on host:port" announcement every server prints; the
#: router parses it off each worker's stdout, exactly as the smoke
#: harness parses the router's own.
_LISTENING_RE = re.compile(r"listening on .*:(\d+)")

#: How many times a mid-sweep worker stream is re-forwarded (after a
#: restart) before the missing points are reported as error lines.
SWEEP_RESUME_LIMIT = 3


class ForwardedPointError(RuntimeError):
    """A worker answered a forwarded campaign point with an error
    envelope; carries the structured point-error doc verbatim."""

    def __init__(self, doc: dict[str, Any]) -> None:
        super().__init__(doc.get("message", "worker error"))
        self.doc = doc


@dataclass
class FleetConfig:
    """One fleet: the router's own server config plus fleet knobs.

    ``base`` configures the router process (listen address, limits,
    access log) *and* is the template for workers: queue limits,
    caches, shed watermark, and keep-alive timeout are passed through
    to each worker process; workers always bind port 0 on loopback and
    get ``worker_id`` ``w0..wN-1``.
    """

    base: ServerConfig = field(default_factory=ServerConfig)
    workers: int = 2
    supervise_interval_s: float = 0.25
    #: How long a forwarded request keeps retrying through worker
    #: restarts before answering 502.
    forward_deadline_s: float = 15.0
    #: Upper bound on a worker response body the router will relay
    #: (stats merges and big simulate envelopes fit comfortably).
    forward_max_body_bytes: int = 32 * 1024 * 1024
    #: Idle pooled connections kept per worker.
    pool_size: int = 8
    #: How long one worker spawn may take to announce its port.
    ready_timeout_s: float = 60.0


class WorkerHandle:
    """One slot's process: spawn/respawn, port, and connection pool."""

    def __init__(self, name: str, config: FleetConfig) -> None:
        self.name = name
        self.config = config
        self.process: subprocess.Popen[str] | None = None
        self.port: int | None = None
        self.generation = 0  # bumps on every (re)spawn; stale pools die
        self.restarts = 0  # respawns after the initial spawn
        #: ``router perf_counter = worker perf_counter + offset`` — the
        #: clock handshake result, re-measured on every (re)spawn since a
        #: fresh process reads a fresh monotonic epoch.
        self.clock_offset_s = 0.0
        self.lock = asyncio.Lock()
        self._pool: list[tuple[int, asyncio.StreamReader, asyncio.StreamWriter]] = []

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.poll() is None

    @property
    def pid(self) -> int | None:
        return self.process.pid if self.process is not None else None

    def _command(self) -> list[str]:
        base = self.config.base
        cmd = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--host",
            "127.0.0.1",
            "--port",
            "0",
            "--workers",
            "1",
            "--worker-id",
            self.name,
            "--queue-limit",
            str(base.queue_limit),
            "--result-cache-mib",
            f"{base.result_cache_bytes / (1024 * 1024):g}",
            "--default-deadline-s",
            f"{base.default_deadline_s:g}",
            "--span-ring-capacity",
            str(base.span_ring_capacity),
        ]
        if base.keepalive_timeout_s is not None:
            cmd += ["--keepalive-timeout", f"{base.keepalive_timeout_s:g}"]
        if base.shed_watermark is not None:
            cmd += ["--shed-watermark", str(base.shed_watermark)]
        if base.disk_cache_dir is not None:
            # All workers share one directory: entries are content-
            # addressed and written atomically, so this is safe — and it
            # is what makes a restarted worker boot warm.
            cmd += [
                "--disk-cache-dir",
                str(base.disk_cache_dir),
                "--disk-cache-mib",
                f"{base.disk_cache_bytes / (1024 * 1024):g}",
            ]
        if base.access_log_path:
            cmd += ["--access-log", f"{base.access_log_path}.{self.name}"]
        if base.span_spool_dir:
            # One --span-spool-dir fans out into a subdirectory per
            # process: the router claims <dir>/router, each worker its
            # slot name — `repro obs timeline --spool <dir>` merges them.
            cmd += [
                "--span-spool-dir",
                os.path.join(base.span_spool_dir, self.name),
            ]
        return cmd

    def spawn(self) -> None:
        """Start (or restart) the worker process; blocks until it
        announces its port.  Runs on a thread (``asyncio.to_thread``)."""
        import repro

        src_dir = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_dir if not existing else src_dir + os.pathsep + existing
        )
        env["PYTHONUNBUFFERED"] = "1"
        self.process = subprocess.Popen(
            self._command(),
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        deadline = time.monotonic() + self.config.ready_timeout_s
        port: int | None = None
        assert self.process.stdout is not None
        while time.monotonic() < deadline:
            line = self.process.stdout.readline()
            if not line:
                if self.process.poll() is not None:
                    raise RuntimeError(
                        f"worker {self.name} exited with "
                        f"{self.process.returncode} during startup"
                    )
                continue
            match = _LISTENING_RE.search(line)
            if match:
                port = int(match.group(1))
                break
        if port is None:
            self.process.kill()
            raise RuntimeError(
                f"worker {self.name} did not announce a port within "
                f"{self.config.ready_timeout_s:g}s"
            )
        self.port = port
        self.clock_offset_s = self._clock_handshake()
        self.generation += 1

    def _clock_handshake(self) -> float:
        """Measure this worker's ``perf_counter`` offset from ours.

        ``time.perf_counter()`` epochs are process-local, so a worker's
        span timestamps mean nothing in the router's timeline until the
        two clocks are related.  One GET round trip to the worker's span
        export does it: the document carries the worker's
        ``perf_counter`` reading taken while building the response,
        which corresponds — to within half the RTT, both processes being
        on loopback — to the router-side midpoint of the request.  The
        returned offset converts worker readings into the router's
        domain (``router = worker + offset``); a failed handshake falls
        back to 0, which merely degrades merged-timeline alignment for
        this worker, never serving.
        """
        import http.client

        assert self.port is not None
        try:
            connection = http.client.HTTPConnection(
                "127.0.0.1", self.port, timeout=5.0
            )
            try:
                t0 = time.perf_counter()
                connection.request("GET", "/v1/debug/spans?last=0")
                payload = connection.getresponse().read()
                t1 = time.perf_counter()
            finally:
                connection.close()
            worker_now = json.loads(payload)["clock"]["perf_counter"]
            return (t0 + t1) / 2.0 - float(worker_now)
        except (OSError, ValueError, KeyError, TypeError):
            return 0.0

    # -- pooled connections ------------------------------------------------

    def checkout(self) -> tuple[asyncio.StreamReader, asyncio.StreamWriter] | None:
        """A pooled connection of the current generation, if any."""
        while self._pool:
            generation, reader, writer = self._pool.pop()
            if generation == self.generation and not writer.is_closing():
                return reader, writer
            writer.close()
        return None

    def checkin(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if len(self._pool) < self.config.pool_size:
            self._pool.append((self.generation, reader, writer))
        else:
            writer.close()

    def close_pool(self) -> None:
        while self._pool:
            _, _, writer = self._pool.pop()
            writer.close()

    def terminate(self) -> None:
        """SIGTERM (the drain path) then SIGKILL if it lingers."""
        self.close_pool()
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=5.0)


class Fleet:
    """The worker set: ring placement, forwarding, and supervision."""

    def __init__(self, config: FleetConfig) -> None:
        if config.workers < 2:
            raise ValueError(
                f"a fleet needs at least 2 workers, got {config.workers} "
                "(use ReproServer / --workers 1 for a single process)"
            )
        self.config = config
        self.names = worker_names(config.workers)
        self.ring = HashRing(self.names)
        self.workers = {name: WorkerHandle(name, config) for name in self.names}

    def owner_of(self, key: str) -> str:
        return self.ring.owner(key)

    @property
    def restarts_total(self) -> int:
        return sum(handle.restarts for handle in self.workers.values())

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        await asyncio.gather(
            *(
                asyncio.to_thread(handle.spawn)
                for handle in self.workers.values()
            )
        )

    async def stop(self) -> None:
        await asyncio.gather(
            *(
                asyncio.to_thread(handle.terminate)
                for handle in self.workers.values()
            )
        )

    async def ensure_alive(self, name: str) -> None:
        """Respawn a dead worker into its own (unchanged) ring slot."""
        handle = self.workers[name]
        async with handle.lock:
            if handle.alive:
                return
            handle.close_pool()
            await asyncio.to_thread(handle.spawn)
            handle.restarts += 1
            print(
                f"repro.fleet worker {handle.name} restarted "
                f"pid={handle.pid} port={handle.port}",
                flush=True,
            )

    async def supervise(self) -> None:
        """Poll workers and restart any that died; runs until cancelled."""
        while True:
            await asyncio.sleep(self.config.supervise_interval_s)
            for name, handle in self.workers.items():
                if not handle.alive:
                    try:
                        await self.ensure_alive(name)
                    except RuntimeError:
                        # Spawn failed (e.g. mid-shutdown); the next tick
                        # or the next forwarded request retries.
                        continue

    # -- forwarding --------------------------------------------------------

    async def _connect(
        self, handle: WorkerHandle
    ) -> tuple[asyncio.StreamReader, asyncio.StreamWriter]:
        if handle.port is None:
            raise ConnectionError(f"worker {handle.name} has no port yet")
        return await asyncio.open_connection("127.0.0.1", handle.port)

    async def forward(
        self,
        name: str,
        method: str,
        path: str,
        body: bytes = b"",
        headers: dict[str, str] | None = None,
    ) -> http11.Response:
        """One request/response round trip to a worker.

        Retries through worker death: a connection-level failure
        triggers a restart (same ring slot) and a fresh attempt until
        ``forward_deadline_s`` elapses, after which the client gets a
        502.  A request the worker *answered* — any status — is never
        retried; only transport failures are.
        """
        handle = self.workers[name]
        deadline = time.monotonic() + self.config.forward_deadline_s
        while True:
            generation = handle.generation
            connection = handle.checkout()
            try:
                if connection is None:
                    connection = await self._connect(handle)
                reader, writer = connection
                writer.write(
                    http11.render_request(method, path, body=body, headers=headers)
                )
                await writer.drain()
                response = await http11.read_response(
                    reader,
                    max_body_bytes=self.config.forward_max_body_bytes,
                )
            except (ConnectionError, OSError, asyncio.IncompleteReadError):
                if connection is not None:
                    connection[1].close()
                if time.monotonic() >= deadline:
                    raise HttpError(
                        502,
                        "bad_upstream",
                        f"worker {name} unreachable after retries",
                    ) from None
                try:
                    await self.ensure_alive(name)
                except RuntimeError:
                    pass
                await asyncio.sleep(0.05)
                continue
            if response.keep_alive and generation == handle.generation:
                handle.checkin(reader, writer)
            else:
                writer.close()
            return response

    async def stream(
        self,
        name: str,
        method: str,
        path: str,
        body: bytes,
    ) -> Any:
        """One streamed (chunked JSONL) worker response, record by record.

        A dedicated connection — the worker closes streaming
        connections when done — yielding each decoded JSON line.
        Transport failures propagate to the caller, which owns the
        resume-and-dedupe policy.
        """
        handle = self.workers[name]
        reader, writer = await self._connect(handle)
        try:
            writer.write(
                http11.render_request(
                    method,
                    path,
                    body=body,
                    headers={"content-type": "application/json"},
                )
            )
            await writer.drain()
            head = await http11.read_response_head(reader)
            if head.status != 200:
                raise HttpError(
                    502,
                    "bad_upstream",
                    f"worker {name} answered {head.status} to {path}",
                )
            if not head.chunked:
                raise HttpError(
                    502, "bad_upstream", f"worker {name} did not stream {path}"
                )
            buffer = b""
            while True:
                chunk = await http11.read_chunk(reader)
                if not chunk:
                    break
                buffer += chunk
                while b"\n" in buffer:
                    line, _, buffer = buffer.partition(b"\n")
                    if line.strip():
                        yield json.loads(line)
        finally:
            writer.close()

    def describe(self) -> dict[str, Any]:
        """JSON-ready per-worker view for the merged ``/v1/stats``."""
        return {
            name: {
                "alive": handle.alive,
                "pid": handle.pid,
                "port": handle.port,
                "generation": handle.generation,
                "restarts": handle.restarts,
            }
            for name, handle in self.workers.items()
        }


def _rekey(key: str, worker: str) -> str:
    """Re-render a registry key with a ``worker=<name>`` label added."""
    name, labels = live._split_key(key)
    labels["worker"] = worker
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


class RouterApp(ServiceApp):
    """The router's request handling: shard, forward, merge.

    Subclasses :class:`ServiceApp` so the analytic, health, and debug
    endpoints — and the whole error-mapping / accounting / access-log
    pipeline — are served locally and identically; only ``simulate``,
    ``sweep``, ``stats``, and ``metrics`` take fleet-specific paths.
    The router's batcher exists for the base class's queue gauges but
    never computes: every simulation lands on a worker.
    """

    def __init__(self, *args: Any, fleet: Fleet, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.fleet = fleet
        self._forward_sketches: dict[str, QuantileSketch] = {}

    # -- sharded forwarding ------------------------------------------------

    async def _simulate(self, params: Any) -> tuple[int, bytes]:
        with tracing.span("service.dispatch", endpoint="simulate"):
            validated = request_schemas.validate_simulate(params)
            shard_key = queries.events_key_of(validated)
            owner = self.fleet.owner_of(shard_key)
        live.annotate(worker=owner)
        headers = {}
        request_id = live.current_request_id()
        if request_id:
            headers[live.REQUEST_ID_HEADER] = request_id
        started = time.perf_counter()
        with tracing.span("service.forward", worker=owner):
            # Inside the span: the forward span is now the innermost
            # traced span, so the outbound traceparent names it as the
            # parent — the worker's ingress span becomes its child and
            # the merged timeline can stitch the cross-process edge.
            traceparent = live.current_traceparent()
            if traceparent is not None:
                headers[live.TRACEPARENT_HEADER] = traceparent
            response = await self.fleet.forward(
                owner,
                "POST",
                "/v1/simulate",
                body=json.dumps({"params": params}).encode("utf-8"),
                headers=headers,
            )
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        self.registry.inc(
            "service.router.forwarded", worker=owner, status=response.status
        )
        self._forward_sketches.setdefault(owner, QuantileSketch()).add(
            elapsed_ms
        )
        # The worker's body — success envelope or error envelope — is
        # relayed verbatim: byte-identical to a single-process answer.
        return response.status, response.body

    # -- campaign point resolution ------------------------------------------

    async def resolve_point(self, validated: dict[str, Any]) -> dict[str, Any]:
        """One campaign point, forwarded to the owning worker.

        Campaigns run on the *router* (workers are spawned without a
        campaign dir), so the background executor rides the same
        consistent-hash forwarding as interactive ``/v1/simulate`` —
        including the retry-through-restart path, which is what lets a
        SIGKILLed worker cost a campaign nothing but latency.
        """
        wire = {
            key: value for key, value in validated.items() if value is not None
        }
        shard_key = queries.events_key_of(validated)
        owner = self.fleet.owner_of(shard_key)
        headers: dict[str, str] = {}
        traceparent = live.current_traceparent()
        if traceparent is not None:
            headers[live.TRACEPARENT_HEADER] = traceparent
        response = await self.fleet.forward(
            owner,
            "POST",
            "/v1/simulate",
            body=json.dumps({"params": wire}).encode("utf-8"),
            headers=headers or None,
        )
        self.registry.inc(
            "service.router.forwarded", worker=owner, status=response.status
        )
        envelope = json.loads(response.body)
        if response.status != 200:
            error = (
                envelope.get("error", {}) if isinstance(envelope, dict) else {}
            )
            raise ForwardedPointError(
                {
                    "code": error.get("code", "bad_upstream"),
                    "message": error.get("message", "worker error"),
                    "status": response.status,
                }
            )
        return envelope["result"]

    def classify_point_error_doc(self, error: BaseException) -> dict[str, Any]:
        if isinstance(error, ForwardedPointError):
            return error.doc
        if isinstance(error, HttpError):
            return {
                "code": error.code,
                "message": error.message,
                "status": error.status,
            }
        return super().classify_point_error_doc(error)

    # -- sharded sweep streaming -------------------------------------------

    def _sweep(self, params: Any) -> StreamBody:
        with tracing.span("service.dispatch", endpoint="sweep"):
            validated = request_schemas.validate_sweep(params)
            total = request_schemas.sweep_point_count(validated)
        live.annotate(sweep_points=total)
        return StreamBody(self._fanout_lines(validated, total))

    def _assignments(self, validated: dict[str, Any]) -> dict[str, list[int]]:
        """Which worker owns which global cache indices.

        Sharding by geometry == sharding by events key: the key depends
        only on (trace, cache geometry), so every point of one cache
        column lands on that column's owner — simulate requests for the
        same column hit the same worker's warm caches.
        """
        assignments: dict[str, list[int]] = {}
        for index, cache in enumerate(validated["caches"]):
            key = queries.events_key_of(
                {"trace": validated["trace"], "cache": cache}
            )
            assignments.setdefault(self.fleet.owner_of(key), []).append(index)
        return assignments

    @staticmethod
    def _sub_params(
        validated: dict[str, Any], cache_indices: list[int]
    ) -> dict[str, Any]:
        """A worker's sub-sweep request: its cache columns, full inner grid."""
        sub: dict[str, Any] = {
            "trace": validated["trace"],
            "caches": [validated["caches"][i] for i in cache_indices],
            "policies": validated["policies"],
            "memory_cycles": validated["memory_cycles"],
            "bus_width": validated["bus_width"],
            "issue_rate": validated["issue_rate"],
        }
        for optional in ("write_buffer_depth", "pipelined_q", "deadline_ms"):
            if validated[optional] is not None:
                sub[optional] = validated[optional]
        return sub

    async def _fanout_lines(self, validated: dict[str, Any], total: int) -> Any:
        header = {
            "schema": SERVICE_SWEEP_SCHEMA,
            "points": total,
            "grid": {
                "caches": len(validated["caches"]),
                "policies": len(validated["policies"]),
                "memory_cycles": len(validated["memory_cycles"]),
            },
        }
        yield (dump_json_line(header) + "\n").encode("utf-8")
        per = len(validated["policies"]) * len(validated["memory_cycles"])
        queue: asyncio.Queue[Any] = asyncio.Queue(maxsize=512)
        done = object()
        tasks = [
            asyncio.ensure_future(
                self._pump(worker, validated, indices, per, queue, done)
            )
            for worker, indices in sorted(self._assignments(validated).items())
        ]
        errors = 0
        try:
            remaining = len(tasks)
            while remaining:
                record = await queue.get()
                if record is done:
                    remaining -= 1
                    continue
                if "error" in record:
                    errors += 1
                    self.registry.inc("service.sweep.errors")
                self.registry.inc("service.sweep.points")
                yield (dump_json_line(record) + "\n").encode("utf-8")
            summary = {"done": True, "errors": errors, "points": total}
            yield (dump_json_line(summary) + "\n").encode("utf-8")
        finally:
            for task in tasks:
                task.cancel()

    async def _pump(
        self,
        worker: str,
        validated: dict[str, Any],
        cache_indices: list[int],
        per: int,
        queue: asyncio.Queue[Any],
        done: object,
    ) -> None:
        """Stream one worker's sub-sweep into the shared queue.

        Rewrites the worker's local point indices to global ones.  A
        transport failure mid-stream restarts the worker (same slot)
        and re-forwards the whole sub-sweep — already-relayed points are
        deduplicated by global index, and the re-run is cheap because
        the worker's result cache already holds them.  After
        :data:`SWEEP_RESUME_LIMIT` resumes, never-received points are
        reported as error lines so the stream still terminates with a
        complete index space.
        """
        body = json.dumps(
            {"params": self._sub_params(validated, cache_indices)}
        ).encode("utf-8")
        expected = len(cache_indices) * per
        emitted: set[int] = set()
        try:
            for attempt in range(1 + SWEEP_RESUME_LIMIT):
                if attempt:
                    self.registry.inc(
                        "service.router.sweep_resumes", worker=worker
                    )
                try:
                    async for record in self.fleet.stream(
                        worker, "POST", "/v1/sweep", body
                    ):
                        local = record.get("index")
                        if not isinstance(local, int):
                            continue  # the worker's header/summary lines
                        global_cache = cache_indices[local // per]
                        global_index = global_cache * per + (local % per)
                        if global_index in emitted:
                            continue  # replay overlap after a resume
                        emitted.add(global_index)
                        record["index"] = global_index
                        point = record.get("point")
                        if isinstance(point, dict):
                            point["cache_index"] = global_cache
                        await queue.put(record)
                except (
                    ConnectionError,
                    OSError,
                    asyncio.IncompleteReadError,
                    HttpError,
                ):
                    try:
                        await self.fleet.ensure_alive(worker)
                    except RuntimeError:
                        pass
                    continue
                break  # the worker's stream ended cleanly
            if len(emitted) < expected:
                for global_cache in cache_indices:
                    for rem in range(per):
                        global_index = global_cache * per + rem
                        if global_index not in emitted:
                            await queue.put(
                                self._missing_point(
                                    validated, worker, global_index, per
                                )
                            )
        finally:
            await queue.put(done)

    @staticmethod
    def _missing_point(
        validated: dict[str, Any], worker: str, global_index: int, per: int
    ) -> dict[str, Any]:
        """An error line for a point its shard never delivered."""
        n_beta = len(validated["memory_cycles"])
        cache_index = global_index // per
        rem = global_index % per
        return {
            "error": {
                "code": "bad_upstream",
                "message": f"shard {worker} did not deliver this point",
                "status": 502,
            },
            "index": global_index,
            "point": {
                "cache_index": cache_index,
                "cache": validated["caches"][cache_index],
                "policy": validated["policies"][rem // n_beta],
                "memory_cycle": validated["memory_cycles"][rem % n_beta],
            },
        }

    # -- merged observability ----------------------------------------------

    async def _dispatch(
        self, endpoint: str | None, request: http11.Request
    ) -> tuple[int, bytes | StreamBody, str]:
        if endpoint == "stats" and request.method == "GET":
            return 200, await self._merged_stats_body(), JSON_CONTENT_TYPE
        if endpoint == "metrics" and request.method == "GET":
            return 200, await self._merged_metrics_body(), METRICS_CONTENT_TYPE
        if endpoint == "debug-trace" and request.method == "GET":
            return (
                200,
                await self._merged_trace_body(request.path),
                JSON_CONTENT_TYPE,
            )
        return await super()._dispatch(endpoint, request)

    async def _merged_trace_body(self, path: str) -> bytes:
        """``GET /v1/debug/trace``: one Perfetto document for the fleet.

        The router turns collector: it scrapes every worker's span ring
        over ``/v1/debug/spans``, rebases each worker's ``perf_counter``
        timestamps into its own timeline using the spawn-time clock
        handshake (:meth:`WorkerHandle._clock_handshake`), and emits one
        Chrome-trace document with a process track per fleet member plus
        flow events stitching each ``service.forward`` span to the
        worker spans it fathered.  ``?trace_id=`` narrows every track to
        one request's tree; ``?last=N`` bounds each ring tail.  The
        whole document is normalised so its earliest timestamp is zero —
        a respawned worker's fresh (earlier) monotonic epoch can never
        produce negative or pre-epoch timestamps.
        """
        last, trace_id = self._trace_query(path)
        tracer = (
            self.tracer if self.tracer is not None else tracing.current_tracer()
        )
        document = trace_tail_document(tracer, last, trace_id=trace_id)
        if tracer is None or not document.get("enabled"):
            return dump_json(document).encode("utf-8")

        query = []
        if last is not None:
            query.append(f"last={last}")
        if trace_id is not None:
            query.append(f"trace_id={trace_id}")
        suffix = "?" + "&".join(query) if query else ""

        async def fetch(name: str) -> dict[str, Any] | None:
            try:
                response = await self.fleet.forward(
                    name, "GET", "/v1/debug/spans" + suffix
                )
                if response.status != 200:
                    return None
                return json.loads(response.body)
            except (HttpError, ValueError):
                return None

        names = self.fleet.names
        docs = dict(
            zip(names, await asyncio.gather(*(fetch(name) for name in names)))
        )

        # Synthetic pids give each fleet member its own process track
        # regardless of OS pid reuse across respawns: router = 0,
        # workers = ring order + 1.
        events: list[dict[str, Any]] = []
        meta: list[dict[str, Any]] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": 0,
                "tid": 0,
                "args": {"name": f"router (pid {os.getpid()})"},
            }
        ]
        forward_spans: dict[str, dict[str, Any]] = {}
        for event in document["traceEvents"]:
            event = dict(event)
            event["pid"] = 0
            if event.get("ph") == "M":
                meta.append(event)
                continue
            events.append(event)
            span_id = event.get("args", {}).get("span_id")
            if event.get("name") == "service.forward" and span_id:
                forward_spans[span_id] = event

        flows: list[dict[str, Any]] = []
        for index, name in enumerate(names):
            doc = docs.get(name)
            if doc is None:
                continue
            pid = index + 1
            handle = self.fleet.workers[name]
            meta.append(
                {
                    "name": "process_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": f"{name} (pid {handle.pid})"},
                }
            )
            epoch = doc.get("clock", {}).get("epoch")
            if epoch is None:
                continue  # worker ring disabled: track stays empty
            # Rebase: worker-relative µs -> absolute worker seconds ->
            # (handshake offset) -> absolute router seconds -> µs
            # relative to the router tracer's epoch.
            shift_us = (
                epoch + handle.clock_offset_s - tracer.epoch
            ) * 1_000_000.0
            for event in doc.get("traceEvents", []):
                event = dict(event)
                event["pid"] = pid
                if event.get("ph") == "M":
                    meta.append(event)
                    continue
                event["ts"] = round(event["ts"] + shift_us, 3)
                events.append(event)
                parent = event.get("args", {}).get("parent_span_id")
                source = forward_spans.get(parent) if parent else None
                if source is not None:
                    flow = {
                        "name": "forward",
                        "cat": "repro.flow",
                        "id": parent,
                    }
                    flows.append(
                        {
                            **flow,
                            "ph": "s",
                            "ts": source["ts"],
                            "pid": source["pid"],
                            "tid": source["tid"],
                        }
                    )
                    flows.append(
                        {
                            **flow,
                            "ph": "f",
                            "bp": "e",
                            "ts": event["ts"],
                            "pid": pid,
                            "tid": event["tid"],
                        }
                    )

        # Normalise the merged timeline to start at zero: respawned
        # workers read fresh monotonic epochs that may predate the
        # router's, and Perfetto dislikes negative timestamps.
        base = min((event["ts"] for event in events + flows), default=0.0)
        for event in events + flows:
            event["ts"] = round(event["ts"] - base, 3)

        document["traceEvents"] = meta + events + flows
        document["fleet"] = {
            name: {
                "reachable": docs.get(name) is not None,
                "pid": index + 1,
                "clock_offset_s": round(
                    self.fleet.workers[name].clock_offset_s, 6
                ),
            }
            for index, name in enumerate(names)
        }
        document["otherData"] = {"producer": "repro.service.router"}
        return dump_json(document).encode("utf-8")

    async def _collect_worker_stats(self) -> dict[str, dict[str, Any] | None]:
        async def fetch(name: str) -> dict[str, Any] | None:
            try:
                response = await self.fleet.forward(name, "GET", "/v1/stats")
                if response.status != 200:
                    return None
                return json.loads(response.body)
            except (HttpError, ValueError):
                return None

        names = self.fleet.names
        results = await asyncio.gather(*(fetch(name) for name in names))
        return dict(zip(names, results))

    def _merged_snapshot(
        self, docs: dict[str, dict[str, Any] | None]
    ) -> tuple[dict[str, Any], dict[str, Any]]:
        """Router counters plus every worker's, worker-labelled."""
        snapshot = self.registry.snapshot()
        counters = dict(snapshot["counters"])
        histograms = dict(snapshot["histograms"])
        for name, doc in docs.items():
            if doc is None:
                continue
            for key, value in doc.get("counters", {}).items():
                counters[_rekey(key, name)] = value
            for key, entry in doc.get("histograms", {}).items():
                histograms[_rekey(key, name)] = entry
        return (
            {k: counters[k] for k in sorted(counters)},
            {k: histograms[k] for k in sorted(histograms)},
        )

    async def _merged_stats_body(self) -> bytes:
        docs = await self._collect_worker_stats()
        counters, histograms = self._merged_snapshot(docs)
        queue = {"depth": 0, "limit": 0}
        cache_totals = {
            "entries": 0,
            "bytes": 0,
            "capacity_bytes": 0,
            "hits": 0,
            "misses": 0,
            "evictions": 0,
        }
        disk_totals: dict[str, int] | None = None
        for doc in docs.values():
            if doc is None:
                continue
            queue["depth"] += doc.get("queue", {}).get("depth", 0)
            queue["limit"] += doc.get("queue", {}).get("limit", 0)
            for field_name in cache_totals:
                cache_totals[field_name] += doc.get("result_cache", {}).get(
                    field_name, 0
                )
            disk = doc.get("disk_cache")
            if disk is not None:
                if disk_totals is None:
                    disk_totals = {
                        "entries": 0,
                        "bytes": 0,
                        "capacity_bytes": 0,
                        "hits": 0,
                        "misses": 0,
                        "evictions": 0,
                    }
                for field_name in disk_totals:
                    disk_totals[field_name] += disk.get(field_name, 0)
        lookups = cache_totals["hits"] + cache_totals["misses"]
        latency = {}
        for endpoint, samples in sorted(self._latency_ms.items()):
            values = list(samples)
            latency[endpoint] = {
                "count": len(values),
                "p50_ms": percentile(values, 50.0),
                "p99_ms": percentile(values, 99.0),
            }
        fleet_quantiles = QuantileSketch()
        per_worker_forward: dict[str, dict[str, float]] = {}
        for name in self.fleet.names:
            sketch = self._forward_sketches.get(name)
            if sketch is None:
                continue
            fleet_quantiles.merge(sketch)
            per_worker_forward[name] = {
                "count": sketch.total,
                "p50_ms": round(sketch.quantile(0.5), 3),
                "p99_ms": round(sketch.quantile(0.99), 3),
            }
        stats: dict[str, Any] = {
            "schema": SERVICE_STATS_SCHEMA,
            "counters": counters,
            "histograms": histograms,
            "queue": queue,
            "result_cache": {
                **cache_totals,
                "hit_rate": (
                    cache_totals["hits"] / lookups if lookups else 0.0
                ),
            },
            "latency": latency,
            "fleet": {
                "workers": {
                    name: {
                        **info,
                        "reachable": docs.get(name) is not None,
                    }
                    for name, info in self.fleet.describe().items()
                },
                "restarts": self.fleet.restarts_total,
                "forward_latency_ms": {
                    "workers": per_worker_forward,
                    "p50_ms": round(fleet_quantiles.quantile(0.5), 3),
                    "p99_ms": round(fleet_quantiles.quantile(0.99), 3),
                },
            },
        }
        if disk_totals is not None:
            stats["disk_cache"] = disk_totals
        if self.campaign_service is not None:
            stats["campaigns"] = self.campaign_service.stats()
        return dump_json(stats).encode("utf-8")

    async def _merged_metrics_body(self) -> bytes:
        docs = await self._collect_worker_stats()
        counters, histograms = self._merged_snapshot(docs)
        alive = sum(1 for h in self.fleet.workers.values() if h.alive)
        gauges = {
            "service.ready": 1.0 if self.is_ready() else 0.0,
            "fleet.workers": float(len(self.fleet.names)),
            "fleet.workers_alive": float(alive),
            "fleet.restarts": float(self.fleet.restarts_total),
        }
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
        text = render_prometheus(
            {"counters": counters, "histograms": histograms},
            window_summary,
            gauges,
        )
        return text.encode("utf-8")


class RouterServer(ReproServer):
    """A :class:`ReproServer` whose app shards across a worker fleet.

    Reuses the whole single-process transport — connection handling,
    keep-alive timeout, streaming writes, drain — and swaps in
    :class:`RouterApp`.  The router's own batcher idles (nothing local
    ever submits to it); its drain is what stops it again.
    """

    def __init__(
        self, config: FleetConfig, registry: Any | None = None
    ) -> None:
        super().__init__(config.base, registry=registry)
        self.fleet_config = config
        self.fleet = Fleet(config)
        self._supervisor: asyncio.Task[None] | None = None

    async def start(self) -> None:
        await self.fleet.start()
        await super().start()
        assert self.app is not None
        self._supervisor = asyncio.ensure_future(self.fleet.supervise())

    def _make_app(self) -> ServiceApp:
        assert self.registry is not None
        assert self.batcher is not None
        assert self.result_cache is not None
        return RouterApp(
            self.registry,
            self.batcher,
            self.result_cache,
            default_deadline_s=self.config.default_deadline_s,
            window=self.window,
            access_log=self.access_log,
            tracer=tracing.current_tracer(),
            is_ready=lambda: not self._draining,
            profile_max_seconds=self.config.profile_max_seconds,
            span_spool=self.span_spool,
            fleet=self.fleet,
        )

    def _span_spool_dir(self) -> str:
        # The router claims the `router` subdirectory of the shared
        # spool root; _command() hands each worker its slot name.
        assert self.config.span_spool_dir is not None
        return os.path.join(self.config.span_spool_dir, "router")

    async def _drain(self) -> None:
        # Stop supervision first so draining workers are not "restarted",
        # keep workers up through the base drain (in-flight forwards need
        # them), then take the fleet down.
        if self._supervisor is not None:
            self._supervisor.cancel()
            self._supervisor = None
        await super()._drain()
        await self.fleet.stop()


def run_fleet(config: FleetConfig) -> None:
    """Foreground entry: spawn workers, serve until SIGTERM, drain all."""

    async def main() -> None:
        server = RouterServer(config)
        await server.start()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(sig, server.begin_shutdown)
        print(
            f"repro.service listening on {config.base.host}:{server.port}",
            flush=True,
        )
        for name, handle in server.fleet.workers.items():
            print(
                f"repro.fleet worker {name} pid={handle.pid} "
                f"port={handle.port}",
                flush=True,
            )
        await server.serve_until_shutdown()
        print("repro.service drained, bye", flush=True)

    asyncio.run(main())


class FleetThread:
    """A router + fleet on a daemon thread (tests, the load generator)."""

    def __init__(
        self, config: FleetConfig | None = None, registry: Any | None = None
    ) -> None:
        import threading

        self.config = config or FleetConfig()
        self.server = RouterServer(self.config, registry=registry)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None

    @property
    def port(self) -> int:
        return self.server.port

    def start(self) -> "FleetThread":
        import threading

        assert self._thread is None, "already started"
        self._thread = threading.Thread(
            target=self._run, name="repro-fleet", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=120.0):
            raise RuntimeError("fleet thread failed to start")
        if self._startup_error is not None:
            raise RuntimeError("fleet startup failed") from self._startup_error
        return self

    def _run(self) -> None:
        self._loop = asyncio.new_event_loop()
        asyncio.set_event_loop(self._loop)
        try:
            self._loop.run_until_complete(self._main())
        finally:
            self._loop.close()

    async def _main(self) -> None:
        try:
            await self.server.start()
        except BaseException as error:  # noqa: BLE001 - surface to starter
            self._startup_error = error
            self._ready.set()
            await self.server.fleet.stop()
            return
        self._ready.set()
        await self.server.serve_until_shutdown()

    def begin_shutdown(self) -> None:
        assert self._loop is not None
        self._loop.call_soon_threadsafe(self.server.begin_shutdown)

    def stop(self, timeout: float = 60.0) -> None:
        if self._thread is None:
            return
        self.begin_shutdown()
        self._thread.join(timeout=timeout)
        if self._thread.is_alive():
            raise RuntimeError("fleet thread did not drain in time")
        self._thread = None

    def __enter__(self) -> "FleetThread":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()
