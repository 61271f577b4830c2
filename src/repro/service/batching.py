"""Micro-batch scheduler for simulation-backed queries.

Concurrent ``/v1/simulate`` requests land in one bounded queue, served
by a single worker thread.  The scheduler is *work-conserving*: there
is no batch timer.  Whenever the worker is free, the scheduler takes
everything queued as one batch and hands it over at once, so a lone
request on an idle server goes straight to compute.  A batch is
whatever queued while the previous batch computed, so coalescing grows
with load instead of being paid for in idle time.

The scheduler groups each batch by (trace, geometry) content key; the
worker resolves phase 1 (event-stream extraction / store lookup / memo
hit) **once per group**, then runs the cheap per-request phase-2 replay
for every member.  A small LRU memo of resolved
:class:`~repro.cache.events.EventStream` objects carries keys across
batches: a key resolved in one batch is a memo hit in the next, so
however arrivals split into batches, phase 1 runs once per key the memo
holds.  Sixteen clients sweeping ``beta_m`` over a shared trace
therefore pay for one functional pass, not sixteen.  The load generator
reports the batch-coalescing ratio (``service.batch.requests /
service.batch.groups``) and CI still requires it above 1 at 16 clients
(``validate_bench_service``).

Groups are additionally ordered by the *trace-alone* key
(:func:`repro.service.queries.trace_key_of`): service geometries are
all LRU/write-back, so phase 1 runs on the reuse engine and its
expensive half — trace generation plus the reuse-distance profiling
pass — depends on the trace only (``docs/ENGINE.md``).  A batch fanning
one trace across several geometries therefore resolves those groups
back-to-back: the first builds the trace's
:class:`~repro.cache.reuse.ReuseProfile`, the rest derive their event
streams from the profile memo without regenerating anything
(``service.batch.trace_groups`` / ``service.batch.geometry_coalesced``
count the fan).

Robustness contract:

* the queue is *bounded*; a submit that would exceed ``max_pending``
  raises :class:`QueueFullError` immediately (the server maps it to a
  429) instead of buffering without limit;
* waiters can be cancelled (deadline timeouts): the worker checks each
  future before computing and before resolving, so an abandoned request
  is skipped, not raced;
* :meth:`MicroBatcher.drain` lets in-flight and queued work finish,
  then stops the scheduler — the SIGTERM path.

The events memo is counted (``service.events_memo.{hit,miss}``) and
bounded by entry count — event streams for the service's capped trace
sizes are a few hundred KiB.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any

from repro.cache.events import EventStream
from repro.obs import tracing
from repro.obs.live import current_request_id, request_context
from repro.obs.metrics import MetricsRegistry
from repro.service import queries


class QueueFullError(Exception):
    """The bounded request queue is at capacity (backpressure)."""


@dataclass
class _Pending:
    """One queued request and the future its handler awaits."""

    key: str
    trace_key: str
    params: dict[str, Any]
    future: asyncio.Future
    request_id: str | None = None
    trace_context: tuple[str, str] | None = None


class EventsMemo:
    """Count-bounded LRU of resolved event streams (worker-thread only)."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: OrderedDict[str, EventStream] = OrderedDict()

    def get(self, key: str) -> EventStream | None:
        events = self._entries.get(key)
        if events is not None:
            self._entries.move_to_end(key)
        return events

    def put(self, key: str, events: EventStream) -> None:
        self._entries[key] = events
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)


class MicroBatcher:
    """Coalesces concurrent simulate requests by (trace, geometry) key."""

    def __init__(
        self,
        registry: MetricsRegistry,
        max_pending: int = 64,
        events_memo_entries: int = 8,
        resolve_events: Callable[[dict], EventStream] = queries.resolve_events,
        compute: Callable[[dict, EventStream], dict] = queries.simulate_from_events,
    ) -> None:
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self._registry = registry
        self.max_pending = max_pending
        self._resolve_events = resolve_events
        self._compute = compute
        self._memo = EventsMemo(events_memo_entries)
        self._queue: list[_Pending] = []
        self._pending = 0  # queued + computing, for backpressure
        self._wakeup = asyncio.Event()
        self._draining = False
        self._executor = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="repro-batch"
        )
        self._task: asyncio.Task | None = None

    # -- submission (event-loop thread) ----------------------------------

    def start(self) -> None:
        """Spawn the scheduler task (call once, on the server's loop)."""
        if self._task is None:
            self._task = asyncio.get_running_loop().create_task(self._run())

    @property
    def queue_depth(self) -> int:
        """Requests currently queued or computing."""
        return self._pending

    async def submit(self, params: dict[str, Any]) -> dict[str, Any]:
        """Enqueue one simulate request; resolves with its result dict.

        Raises :class:`QueueFullError` when the queue is at capacity and
        propagates any exception the compute raised for this request.
        Cancelling the returned await (deadline) abandons the request —
        the worker skips it if it has not started computing.
        """
        if self._draining:
            raise QueueFullError("server is shutting down")
        if self._pending >= self.max_pending:
            self._registry.inc("service.queue.rejected")
            raise QueueFullError(
                f"request queue at capacity ({self.max_pending} pending)"
            )
        key = queries.events_key_of(params)
        future = asyncio.get_running_loop().create_future()
        entry = _Pending(
            key=key,
            trace_key=queries.trace_key_of(params),
            params=params,
            future=future,
            # run_in_executor does not propagate contextvars, so the
            # ingress request id and trace identity are captured here
            # and re-entered on the worker thread — phase-2 spans then
            # carry the request id and parent onto the request's own
            # span tree, not the batch's.
            request_id=current_request_id(),
            trace_context=tracing.current_trace_context(),
        )
        self._pending += 1
        self._registry.observe("service.queue.depth", self._pending)
        future.add_done_callback(self._on_done)
        self._queue.append(entry)
        self._wakeup.set()
        return await future

    def _on_done(self, _future: asyncio.Future) -> None:
        self._pending -= 1

    # -- scheduling (event-loop thread) -----------------------------------

    async def _run(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            if not self._queue:
                if self._draining:
                    return
                self._wakeup.clear()
                await self._wakeup.wait()
                continue
            # Work-conserving: everything queued while the worker was
            # busy is the next batch, handed over without waiting.
            batch, self._queue = self._queue, []
            groups: OrderedDict[str, list[_Pending]] = OrderedDict()
            for entry in batch:
                groups.setdefault(entry.key, []).append(entry)
            # Second-level grouping: geometry fans over one trace.  The
            # service's cache geometries are all LRU/write-back, so the
            # expensive half of phase 1 — trace generation plus the
            # reuse-distance profiling pass — depends on the trace
            # alone.  Scheduling a trace's geometry groups back-to-back
            # keeps its profile hot in the reuse store's small memo:
            # the first group pays for the profile, the rest derive
            # their event streams from it analytically.
            by_trace: OrderedDict[str, list[list[_Pending]]] = OrderedDict()
            for key, group in groups.items():
                by_trace.setdefault(group[0].trace_key, []).append(group)
            self._registry.inc("service.batch.batches")
            self._registry.inc("service.batch.requests", len(batch))
            self._registry.inc("service.batch.groups", len(groups))
            self._registry.inc(
                "service.batch.coalesced", len(batch) - len(groups)
            )
            self._registry.inc("service.batch.trace_groups", len(by_trace))
            self._registry.inc(
                "service.batch.geometry_coalesced", len(groups) - len(by_trace)
            )
            self._registry.observe("service.batch.size", len(batch))
            ordered = [g for fan in by_trace.values() for g in fan]
            with tracing.span(
                "service.batch",
                requests=len(batch),
                groups=len(groups),
                trace_groups=len(by_trace),
                request_ids=[e.request_id for e in batch if e.request_id],
            ):
                outcomes = await loop.run_in_executor(
                    self._executor, self._compute_batch, ordered
                )
            for entry, ok, value in outcomes:
                if entry.future.done():
                    continue  # deadline hit while we were computing
                if ok:
                    entry.future.set_result(value)
                else:
                    entry.future.set_exception(value)

    # -- computation (single worker thread) -------------------------------

    def _compute_batch(
        self, groups: list[list[_Pending]]
    ) -> list[tuple[_Pending, bool, Any]]:
        """Resolve phase 1 once per group, then phase 2 per request.

        ``groups`` arrives trace-adjacent (see :meth:`_run`): groups
        sharing a trace run consecutively so the reuse-profile memo hit
        is guaranteed regardless of how many traces the batch spans.
        """
        outcomes: list[tuple[_Pending, bool, Any]] = []
        for group in groups:
            live = [e for e in group if not e.future.done()]
            skipped = len(group) - len(live)
            if skipped:
                self._registry.inc("service.batch.abandoned", skipped)
            if not live:
                continue
            key = live[0].key
            events = self._memo.get(key)
            if events is None:
                self._registry.inc("service.events_memo.miss")
                try:
                    with tracing.span(
                        "service.phase1",
                        key=key[:12],
                        request_ids=[e.request_id for e in live if e.request_id],
                    ):
                        events = self._resolve_events(live[0].params)
                except Exception as error:  # noqa: BLE001 - reported per request
                    for entry in live:
                        outcomes.append((entry, False, error))
                    continue
                self._registry.inc("service.phase1.resolves")
                self._memo.put(key, events)
            else:
                self._registry.inc("service.events_memo.hit")
            for entry in live:
                if entry.future.done():
                    self._registry.inc("service.batch.abandoned")
                    continue
                try:
                    with request_context(entry.request_id):
                        with tracing.trace_context(entry.trace_context):
                            with tracing.span("service.phase2", key=key[:12]):
                                result = self._compute(entry.params, events)
                except Exception as error:  # noqa: BLE001 - reported per request
                    outcomes.append((entry, False, error))
                else:
                    outcomes.append((entry, True, result))
        return outcomes

    # -- shutdown (event-loop thread) --------------------------------------

    async def drain(self) -> None:
        """Finish queued and in-flight work, then stop the scheduler."""
        self._draining = True
        self._wakeup.set()
        if self._task is not None:
            await self._task
            self._task = None
        self._executor.shutdown(wait=True)
