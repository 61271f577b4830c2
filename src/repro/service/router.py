"""Sharded multi-process serving fleet: router, workers, supervision.

``python -m repro serve --workers N`` (N > 1) turns the single-process
server into a fleet:

* the **router** process owns the listening socket and speaks the same
  HTTP/1.1 the single server does — clients cannot tell the difference;
* N **worker** processes (plain ``ReproServer`` instances, spawned as
  ``python -m repro serve`` with the router's own config handed over as
  one JSON document) each own a batcher, an engine, and a result cache,
  and announce their kernel-assigned port on stdout exactly as the
  foreground server does;
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
* ``/v1/stats`` and ``/metrics`` merge every worker's snapshot into the
  router's own document, re-keying worker counters with a
  ``worker=<name>`` label, and ``/v1/debug/trace`` merges every worker's
  span ring with the router's on the shared wall clock; the analytic
  and debug endpoints run in the router process itself;
* a **supervisor** task restarts dead workers into the *same* ring slot
  (slot names ``w0..wN-1`` are stable), so a crash moves no keys — the
  restarted worker simply re-owns its range, re-warming from the shared
  disk cache when one is configured.

Ring slots are named, not addressed: the ring maps keys to slot names
and the fleet maps names to live processes, which is what makes restart
a no-op for placement.  Everything else — transport, drain, the thread
harness, the foreground entry, the stats and metrics documents, the
timeline merger — is the single-process code (``--workers 1`` builds no
router at all); this module only adds placement, spawn and respawn,
forwarding with retry, sweep fan-out and resume, and the
worker-labelled merge.
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
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any

from repro.obs import live, tracing
from repro.obs.live import QuantileSketch, wall_clock_events
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import merge_timelines
from repro.service import http11
from repro.service import queries
from repro.service import schemas as request_schemas
from repro.service.app import ServiceApp
from repro.service.http11 import HttpError
from repro.service.server import ReproServer, ServerConfig, ServerThread
from repro.service.shard import HashRing, worker_names
from repro.util.jsonout import dump_json, dump_json_line

#: The "listening on host:port" announcement every server prints; the
#: router parses it off each worker's stdout, exactly as the smoke
#: harness parses the router's own.
_LISTENING_RE = re.compile(r"listening on .*:(\d+)")

#: How many times a mid-sweep worker stream is re-forwarded (after a
#: restart) before the missing points are reported as error lines.
SWEEP_RESUME_LIMIT = 3

#: How often the supervisor polls for dead workers.
SUPERVISE_INTERVAL_S = 0.25

#: How long a forwarded request keeps retrying through worker restarts
#: before answering 502.
FORWARD_DEADLINE_S = 15.0

#: How long the merged ``/v1/stats``, ``/metrics`` and debug trace wait
#: for one worker's document: a worker that does not answer in time (a
#: wedged or stopped process) is reported unreachable instead of
#: stalling the merge.
SCRAPE_TIMEOUT_S = 5.0

#: Upper bound on a worker response body the router will relay (stats
#: merges and big simulate envelopes fit comfortably).
FORWARD_MAX_BODY_BYTES = 32 * 1024 * 1024

#: Idle pooled connections kept per worker.
POOL_SIZE = 8

#: How long one worker spawn may take to announce its port.
READY_TIMEOUT_S = 60.0


@dataclass
class FleetConfig:
    """One fleet: the router's own server config plus the worker count.

    ``base`` configures the router process *and* every worker: each
    worker receives all of it as one JSON document, except that it
    binds port 0 on loopback, gets ``worker_id`` ``w0..wN-1``, runs no
    campaigns (the router does, forwarding their points), and writes
    its own access log (``FILE.wK``) and span spool (``DIR/wK``).
    """

    base: ServerConfig = field(default_factory=ServerConfig)
    workers: int = 2


def _process_config(
    base: ServerConfig, name: str, **changes: Any
) -> ServerConfig:
    """``base`` for one fleet process, which spools its spans into its
    own ``<dir>/<name>`` (``repro obs timeline --spool <dir>`` merges
    them)."""
    spool = base.span_spool_dir
    return replace(
        base,
        span_spool_dir=os.path.join(spool, name) if spool else None,
        **changes,
    )


class WorkerHandle:
    """One slot's process: spawn/respawn, port, and connection pool."""

    def __init__(self, name: str, base: ServerConfig) -> None:
        self.name = name
        self.base = base
        self.process: subprocess.Popen[str] | None = None
        self.port: int | None = None
        self.generation = 0  # bumps on every (re)spawn; stale pools die
        self.restarts = 0  # respawns after the initial spawn
        self.lock = asyncio.Lock()
        self._pool: list[tuple[int, asyncio.StreamReader, asyncio.StreamWriter]] = []

    @property
    def alive(self) -> bool:
        return self.process is not None and self.process.poll() is None

    @property
    def pid(self) -> int | None:
        return self.process.pid if self.process is not None else None

    def _command(self) -> list[str]:
        """``repro serve`` with this worker's copy of the router config."""
        access_log = self.base.access_log_path
        worker = _process_config(
            self.base,
            self.name,
            host="127.0.0.1",
            port=0,
            worker_id=self.name,
            campaign_dir=None,
            # The access log goes beside the router's.  disk_cache_dir
            # stays shared: entries are content-addressed and written
            # atomically, which is what makes a restarted worker boot warm.
            access_log_path=f"{access_log}.{self.name}" if access_log else None,
        )
        return [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--worker-config",
            json.dumps(asdict(worker)),
        ]

    def spawn(self) -> None:
        """Start (or restart) the worker process; blocks until it
        announces its port.  Runs on a thread (``asyncio.to_thread``)."""
        import repro

        if self.process is not None and self.process.stdout is not None:
            self.process.stdout.close()  # the previous, exited process's
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
        deadline = time.monotonic() + READY_TIMEOUT_S
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
            self.process.wait(timeout=5.0)
            self.process.stdout.close()
            raise RuntimeError(
                f"worker {self.name} did not announce a port within "
                f"{READY_TIMEOUT_S:g}s"
            )
        self.port = port
        self.generation += 1

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
        if len(self._pool) < POOL_SIZE:
            self._pool.append((self.generation, reader, writer))
        else:
            writer.close()

    def close_pool(self) -> None:
        """Close the pooled connections (on the loop's own thread:
        stream writers are not thread-safe)."""
        while self._pool:
            _, _, writer = self._pool.pop()
            writer.close()

    def terminate(self) -> None:
        """SIGTERM (the drain path) then SIGKILL if it lingers, and
        close the exited process's stdout pipe.  Touches no asyncio
        object, so it may run on a thread (close the pool first)."""
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30.0)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=5.0)
        if self.process.stdout is not None:
            self.process.stdout.close()


class Fleet:
    """The worker set: ring placement, forwarding, and supervision."""

    def __init__(self, config: FleetConfig) -> None:
        if config.workers < 2:
            raise ValueError(
                f"a fleet needs at least 2 workers, got {config.workers} "
                "(use ReproServer / --workers 1 for a single process)"
            )
        self.names = worker_names(config.workers)
        self.ring = HashRing(self.names)
        self.workers = {
            name: WorkerHandle(name, config.base) for name in self.names
        }

    @property
    def restarts_total(self) -> int:
        return sum(handle.restarts for handle in self.workers.values())

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Spawn every worker; if one fails, stop the rest and raise."""
        outcomes = await asyncio.gather(
            *(
                asyncio.to_thread(handle.spawn)
                for handle in self.workers.values()
            ),
            return_exceptions=True,
        )
        for outcome in outcomes:
            if isinstance(outcome, BaseException):
                await self.stop()
                raise outcome

    async def stop(self) -> None:
        """Close every pool here, on the loop, then signal and reap the
        workers on threads."""
        for handle in self.workers.values():
            handle.close_pool()
        await asyncio.gather(
            *(
                asyncio.to_thread(handle.terminate)
                for handle in self.workers.values()
            )
        )

    async def ensure_alive(self, name: str) -> None:
        """Respawn a dead worker into its own (unchanged) ring slot.

        A spawn that fails (e.g. mid-shutdown) is left for the next
        supervisor tick or the next forwarded request to retry.
        """
        handle = self.workers[name]
        async with handle.lock:
            if handle.alive:
                return
            handle.close_pool()
            try:
                await asyncio.to_thread(handle.spawn)
            except RuntimeError:
                return
            handle.restarts += 1
            print(
                f"repro.fleet worker {handle.name} restarted "
                f"pid={handle.pid} port={handle.port}",
                flush=True,
            )

    async def supervise(self) -> None:
        """Poll workers and restart any that died; runs until cancelled."""
        while True:
            await asyncio.sleep(SUPERVISE_INTERVAL_S)
            for name, handle in self.workers.items():
                if not handle.alive:
                    await self.ensure_alive(name)

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
        :data:`FORWARD_DEADLINE_S` elapses, after which the client gets a
        502.  A request the worker *answered* — any status — is never
        retried; only transport failures are.  A caller's timeout
        (``asyncio.wait_for``) cancels the exchange and closes its
        connection, which then holds a half-read answer.
        """
        handle = self.workers[name]
        deadline = time.monotonic() + FORWARD_DEADLINE_S
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
                    max_body_bytes=FORWARD_MAX_BODY_BYTES,
                )
            except asyncio.CancelledError:
                if connection is not None:
                    connection[1].close()
                raise
            except (OSError, asyncio.IncompleteReadError):
                if connection is not None:
                    connection[1].close()
                if time.monotonic() >= deadline:
                    raise HttpError(
                        502,
                        "bad_upstream",
                        f"worker {name} unreachable after retries",
                    ) from None
                await self.ensure_alive(name)
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
            try:
                await writer.wait_closed()
            except OSError:
                pass  # the worker already dropped the connection


def _rekey(key: str, worker: str) -> str:
    """Re-render a registry key with a ``worker=<name>`` label added."""
    name, labels = live._split_key(key)
    return MetricsRegistry._key(name, {**labels, "worker": worker})


class RouterApp(ServiceApp):
    """The router's request handling: shard, forward, merge.

    Subclasses :class:`ServiceApp` so the analytic, health, and debug
    endpoints — and the whole error-mapping / accounting / access-log
    pipeline, the sweep stream's framing, the stats document and the
    metrics rendering — are served locally and identically; only
    ``simulate`` and campaign points (one forward), the sweep's chunk
    source (fan-out), and the ``stats``, ``metrics`` and ``debug-trace``
    merges take fleet-specific paths.  The router's batcher exists for
    the base class's queue gauges but never computes: every simulation
    lands on a worker.
    """

    def __init__(self, *args: Any, fleet: Fleet, **kwargs: Any) -> None:
        super().__init__(*args, **kwargs)
        self.fleet = fleet
        self._forward_sketches: dict[str, QuantileSketch] = {}

    # -- sharded forwarding ------------------------------------------------

    async def _simulate(self, params: Any) -> tuple[int, bytes]:
        with tracing.span("service.dispatch", endpoint="simulate"):
            validated = request_schemas.validate_simulate(params)
            owner = self.fleet.ring.owner(queries.events_key_of(validated))
        live.annotate(worker=owner)
        # The client's own params go on the wire, and the worker's body —
        # success envelope or error envelope — is relayed verbatim:
        # byte-identical to a single-process answer.
        response = await self._forward_simulate(
            owner, params, self._deadline_s_of(validated)
        )
        return response.status, response.body

    async def resolve_point(self, validated: dict[str, Any]) -> dict[str, Any]:
        """One campaign point, forwarded to the owning worker.

        Campaigns run on the *router* (workers are spawned without a
        campaign dir), so the background executor rides the same
        consistent-hash forwarding as interactive ``/v1/simulate`` —
        including the retry-through-restart path, which is what lets a
        SIGKILLed worker cost a campaign nothing but latency.
        """
        owner = self.fleet.ring.owner(queries.events_key_of(validated))
        response = await self._forward_simulate(
            owner,
            request_schemas.wire_params(validated),
            self._deadline_s_of(validated),
        )
        envelope = json.loads(response.body)
        if response.status != 200:
            error = (
                envelope.get("error", {}) if isinstance(envelope, dict) else {}
            )
            raise HttpError(
                response.status,
                error.get("code", "bad_upstream"),
                error.get("message", "worker error"),
            )
        return envelope["result"]

    async def _forward_simulate(
        self, owner: str, params: Any, deadline_s: float
    ) -> http11.Response:
        """POST one simulate to its owner, traced, counted and timed.

        The request's deadline bounds the whole forward, as it bounds
        the batcher in one process: a worker that does not answer in
        time (wedged, or stopped) makes it a 504 ``deadline_exceeded``
        (``asyncio.TimeoutError``), not a stalled router.
        """
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
            response = await asyncio.wait_for(
                self.fleet.forward(
                    owner,
                    "POST",
                    "/v1/simulate",
                    body=json.dumps({"params": params}).encode("utf-8"),
                    headers=headers,
                ),
                timeout=deadline_s,
            )
        elapsed_ms = (time.perf_counter() - started) * 1000.0
        self.registry.inc(
            "service.router.forwarded", worker=owner, status=response.status
        )
        self._forward_sketches.setdefault(owner, QuantileSketch()).add(
            elapsed_ms
        )
        return response

    # -- sharded sweep streaming -------------------------------------------

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
            assignments.setdefault(self.fleet.ring.owner(key), []).append(index)
        return assignments

    async def _sweep_chunks(self, validated: dict[str, Any]) -> Any:
        """Fan the grid out by owner; relay records as workers stream them."""
        queue: asyncio.Queue[Any] = asyncio.Queue(maxsize=512)
        done = object()
        tasks = [
            asyncio.ensure_future(
                self._pump(worker, validated, indices, queue, done)
            )
            for worker, indices in sorted(self._assignments(validated).items())
        ]
        try:
            remaining = len(tasks)
            while remaining:
                record = await queue.get()
                if record is done:
                    remaining -= 1
                    continue
                failed = "error" in record
                if failed:
                    self.registry.inc("service.sweep.errors")
                self.registry.inc("service.sweep.points")
                yield (dump_json_line(record) + "\n").encode("utf-8"), failed
        finally:
            for task in tasks:
                task.cancel()

    async def _pump(
        self,
        worker: str,
        validated: dict[str, Any],
        cache_indices: list[int],
        queue: asyncio.Queue[Any],
        done: object,
    ) -> None:
        """Stream one worker's sub-sweep into the shared queue.

        Rewrites the worker's local point indices to global ones.  A
        transport failure mid-stream restarts the worker (same slot)
        and re-forwards the whole sub-sweep — already-relayed points are
        deduplicated, and the re-run is cheap because the worker's
        result cache already holds them.  After
        :data:`SWEEP_RESUME_LIMIT` resumes, never-received points are
        reported as error lines so the stream still terminates with a
        complete index space.
        """
        sub, to_global = request_schemas.sub_sweep(validated, cache_indices)
        body = json.dumps(
            {"params": request_schemas.wire_params(sub)}
        ).encode("utf-8")

        def globalized(record: dict[str, Any]) -> dict[str, Any]:
            record["index"], record["point"]["cache_index"] = to_global(
                record["index"]
            )
            return record

        relayed: set[int] = set()
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
                        if local in relayed:
                            continue  # replay overlap after a resume
                        relayed.add(local)
                        await queue.put(globalized(record))
                except (OSError, asyncio.IncompleteReadError, HttpError):
                    await self.fleet.ensure_alive(worker)
                    continue
                break  # the worker's stream ended cleanly
            if len(relayed) < request_schemas.sweep_point_count(sub):
                error = queries.point_error(
                    HttpError(
                        502,
                        "bad_upstream",
                        f"shard {worker} did not deliver this point",
                    )
                )
                for local, point, _ in request_schemas.sweep_grid(sub):
                    if local not in relayed:
                        await queue.put(
                            globalized(
                                {"error": error, "index": local, "point": point}
                            )
                        )
        finally:
            await queue.put(done)

    # -- merged observability ----------------------------------------------

    async def _scrape(self, path: str) -> dict[str, dict[str, Any] | None]:
        """GET one JSON document from every worker (None: unreachable)."""

        async def fetch(name: str) -> dict[str, Any] | None:
            try:
                response = await asyncio.wait_for(
                    self.fleet.forward(name, "GET", path),
                    timeout=SCRAPE_TIMEOUT_S,
                )
                if response.status != 200:
                    return None
                return json.loads(response.body)
            except (HttpError, ValueError, asyncio.TimeoutError):
                return None

        names = self.fleet.names
        results = await asyncio.gather(*(fetch(name) for name in names))
        return dict(zip(names, results))

    async def _trace_body(self, path: str) -> bytes:
        """``GET /v1/debug/trace``: one Perfetto document for the fleet.

        The router turns collector: it scrapes every worker's span ring
        over ``/v1/debug/spans``, places every ring (its own included) on
        the wall clock through the documents' ``clock`` blocks, and
        merges them with :func:`repro.obs.tracing.merge_timelines` — a
        process track per fleet member (router = pid 0, worker = ring
        index + 1, reachable or not, so pids never shift) plus flow
        events stitching each ``service.forward`` span to the worker
        spans it fathered.  ``?trace_id=`` narrows every track to one
        request's tree; ``?last=N`` bounds each ring tail.
        """
        document = self._trace_document(path)
        if not document["enabled"]:
            return dump_json(document).encode("utf-8")
        # The same (already validated) query narrows every worker's ring.
        _, mark, query = path.partition("?")
        docs = await self._scrape("/v1/debug/spans" + mark + query)

        tracks = [(f"router (pid {os.getpid()})", wall_clock_events(document))]
        for name, doc in docs.items():
            tracks.append(
                (
                    f"{name} (pid {self.fleet.workers[name].pid})",
                    wall_clock_events(doc) if doc is not None else [],
                )
            )
        document["traceEvents"] = merge_timelines(tracks)["traceEvents"]
        document["fleet"] = {
            name: {
                "reachable": doc is not None,
                "pid": index + 1,
                # router perf_counter = worker perf_counter + offset
                "clock_offset_s": (
                    round(_clock_offset(document["clock"], doc["clock"]), 6)
                    if doc is not None
                    else 0.0
                ),
            }
            for index, (name, doc) in enumerate(docs.items())
        }
        document["otherData"] = {"producer": "repro.service.router"}
        return dump_json(document).encode("utf-8")

    def _merged_snapshot(
        self, docs: dict[str, dict[str, Any] | None]
    ) -> dict[str, Any]:
        """Router counters and histograms plus every worker's,
        worker-labelled."""
        merged = self.registry.snapshot()
        for name, doc in docs.items():
            for section, entries in merged.items():
                for key, value in (doc or {}).get(section, {}).items():
                    entries[_rekey(key, name)] = value
        return {
            section: dict(sorted(entries.items()))
            for section, entries in merged.items()
        }

    async def _stats_body(self) -> bytes:
        """The router's own ``/v1/stats`` with the fleet merged in."""
        docs = await self._scrape("/v1/stats")
        stats = self._stats()
        stats.update(self._merged_snapshot(docs))
        # Worker totals replace the router's idle queue and empty cache;
        # with no worker reachable, the router's own sections stand.
        for section in ("queue", "result_cache", "disk_cache"):
            parts = [doc[section] for doc in docs.values() if doc and section in doc]
            if parts:
                stats[section] = _field_sums(parts)
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
        stats["fleet"] = {
            "workers": {
                name: {
                    "alive": handle.alive,
                    "pid": handle.pid,
                    "port": handle.port,
                    "generation": handle.generation,
                    "restarts": handle.restarts,
                    "reachable": docs[name] is not None,
                }
                for name, handle in self.fleet.workers.items()
            },
            "restarts": self.fleet.restarts_total,
            "forward_latency_ms": {
                "workers": per_worker_forward,
                "p50_ms": round(fleet_quantiles.quantile(0.5), 3),
                "p99_ms": round(fleet_quantiles.quantile(0.99), 3),
            },
        }
        return dump_json(stats).encode("utf-8")

    async def _metrics_body(self) -> bytes:
        docs = await self._scrape("/v1/stats")
        alive = sum(1 for h in self.fleet.workers.values() if h.alive)
        gauges = {
            "fleet.workers": float(len(self.fleet.names)),
            "fleet.workers_alive": float(alive),
            "fleet.restarts": float(self.fleet.restarts_total),
        }
        return self._render_metrics(self._merged_snapshot(docs), gauges)


def _field_sums(parts: list[dict[str, Any]]) -> dict[str, Any]:
    """Field-wise sum of the numeric fields of per-worker stats sections,
    with ``hit_rate`` recomputed from the summed hits and misses."""
    totals: dict[str, Any] = {}
    for part in parts:
        for key, value in part.items():
            if key != "hit_rate" and isinstance(value, (int, float)):
                totals[key] = totals.get(key, 0) + value
    if "hit_rate" in parts[0]:
        lookups = totals["hits"] + totals["misses"]
        totals["hit_rate"] = totals["hits"] / lookups if lookups else 0.0
    return totals


def _clock_offset(router: dict[str, Any], worker: dict[str, Any]) -> float:
    """``router perf_counter - worker perf_counter`` at one wall instant,
    from two trace documents' ``clock`` blocks."""
    return (router["perf_counter"] - router["wall"]) - (
        worker["perf_counter"] - worker["wall"]
    )


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
        # The workers own the result caches.
        router = _process_config(config.base, "router", disk_cache_dir=None)
        super().__init__(router, registry=registry)
        self.fleet = Fleet(config)
        self._supervisor: asyncio.Task[None] | None = None

    async def start(self) -> None:
        try:
            await self.fleet.start()
            await super().start()
        except BaseException:
            # A failed start (a busy port, say) must not leave the
            # workers it spawned running, re-parented to init.
            await self.fleet.stop()
            raise
        self._supervisor = asyncio.ensure_future(self.fleet.supervise())

    def announce(self) -> None:
        super().announce()
        for name, handle in self.fleet.workers.items():
            print(
                f"repro.fleet worker {name} pid={handle.pid} "
                f"port={handle.port}",
                flush=True,
            )

    def _make_app(self) -> ServiceApp:
        return RouterApp(**self._app_kwargs(), fleet=self.fleet)

    async def _drain(self) -> None:
        # Stop supervision first so draining workers are not "restarted",
        # keep workers up through the base drain (in-flight forwards need
        # them), then take the fleet down.
        if self._supervisor is not None:
            self._supervisor.cancel()
            self._supervisor = None
        await super()._drain()
        await self.fleet.stop()


class FleetThread(ServerThread):
    """A router + fleet on a daemon thread (tests, the load generator)."""

    server: RouterServer

    def _make_server(
        self, config: FleetConfig | None, registry: Any | None
    ) -> ReproServer:
        return RouterServer(config or FleetConfig(), registry=registry)
