"""Live request observability for the serving layer.

Everything here exists so a *running* ``repro.service`` instance can be
debugged while it serves traffic, without giving up the repo's
determinism or stdlib-only contracts (see ``docs/OBSERVABILITY.md``):

Request-context propagation
    Every ingress request gets a ``request_id`` (the inbound
    ``X-Repro-Request-Id`` header when present, a fresh one otherwise).
    The id rides a :mod:`contextvars` context — :func:`request_context`
    installs it, :func:`current_request_id` reads it anywhere below the
    handler, and a provider hook registered with
    :func:`repro.obs.tracing.set_context_provider` stamps it into the
    ``args`` of every span opened while the context is active.  The
    micro-batch scheduler re-enters the context on its worker thread per
    request, so phase-1/phase-2 spans in a Chrome-trace export show
    which coalesced batch served which requests.

Distributed trace context
    Alongside the request id, every ingress request gets a W3C-style
    trace identity: the inbound ``traceparent`` header when well-formed
    (:func:`parse_traceparent` is strict — anything malformed is
    discarded and a fresh root is minted), installed with
    :func:`repro.obs.tracing.trace_context` so every span records
    ``trace_id``/``span_id``/``parent_span_id``.  The router re-emits
    ``traceparent`` on forwarded requests (:func:`current_traceparent`),
    making its ``service.forward`` span the parent of the worker's
    spans; the batcher re-enters the context on the batch thread, so the
    tree survives both the process hop and the thread hop.

:class:`RingTracer`
    A :class:`~repro.obs.tracing.Tracer` whose event list is a bounded
    ring (``collections.deque`` with ``maxlen``) — safe to leave
    installed on a long-lived server.  ``GET /v1/debug/trace?last=N``
    serves its tail as a Perfetto-loadable document.

:class:`RollingWindow` + :class:`QuantileSketch`
    Time-bucketed sliding-window SLIs (counts, error counts, p50/p95/p99
    latency) over the last ~60 s, with an injectable clock so tests pin
    bucket expiry deterministically.  The sketch is a log-spaced
    histogram: bounded memory, deterministic quantiles (each reported
    quantile is the upper edge of the bin holding the nearest-rank
    sample, ~10% relative resolution).

:func:`render_prometheus`
    Text exposition (version 0.0.4) of the cumulative metrics registry,
    the rolling-window summaries, and point-in-time gauges — what
    ``GET /metrics`` returns.  :func:`parse_exposition` is the matching
    structural parser the tests and the CI smoke use to assert validity.
"""

from __future__ import annotations

import math
import re
import time
import uuid
from collections import OrderedDict, deque
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any

from repro.obs import tracing
from repro.obs.tracing import Tracer

#: The ingress/egress header carrying the request id (any casing).
REQUEST_ID_HEADER = "X-Repro-Request-Id"

#: The inbound W3C-style trace-context header
#: (``00-<32 hex trace>-<16 hex span>-<2 hex flags>``).
TRACEPARENT_HEADER = "traceparent"

#: The egress header echoing the request's trace id, so a caller can
#: immediately pull ``/v1/debug/trace?trace_id=...`` for the request it
#: just made (mirrors the :data:`REQUEST_ID_HEADER` echo).
TRACE_ID_HEADER = "X-Repro-Trace-Id"

#: Schema tag of the ``/v1/debug/trace`` document (also a valid Chrome
#: trace: ``traceEvents`` is the ring tail, so Perfetto loads it as-is).
TRACE_TAIL_SCHEMA = "repro.obs.trace_tail/1"

#: Inbound ids are clamped to this many characters.
MAX_REQUEST_ID_LEN = 64

_ID_SANITIZE = re.compile(r"[^A-Za-z0-9._:-]")

#: A well-formed ``traceparent`` is exactly this long; anything longer
#: is rejected before the regex even runs.
MAX_TRACEPARENT_LEN = 55

_TRACEPARENT_RE = re.compile(
    r"^00-(?P<trace_id>[0-9a-f]{32})-(?P<span_id>[0-9a-f]{16})-[0-9a-f]{2}$"
)


# -- request-context propagation -----------------------------------------


@dataclass
class RequestContext:
    """The per-request state carried through handler and worker code."""

    request_id: str
    annotations: dict[str, Any] = field(default_factory=dict)


_CONTEXT: ContextVar[RequestContext | None] = ContextVar(
    "repro_request_context", default=None
)


def new_request_id() -> str:
    """A fresh 16-hex-character request id."""
    return uuid.uuid4().hex[:16]


def request_id_from_header(value: str | None) -> str:
    """Honour an inbound header id (sanitized, clamped) or mint one."""
    if value:
        cleaned = _ID_SANITIZE.sub("", value.strip())[:MAX_REQUEST_ID_LEN]
        if cleaned:
            return cleaned
    return new_request_id()


# -- distributed trace context -------------------------------------------


def new_trace_id() -> str:
    """A fresh 32-hex-character trace id."""
    return uuid.uuid4().hex


def parse_traceparent(value: str | None) -> tuple[str, str] | None:
    """Strictly parse a ``traceparent`` into ``(trace_id, span_id)``.

    Unlike :func:`request_id_from_header`'s strip-the-bad-characters
    sanitization, trace identity is all-or-nothing: a header that is
    missing, oversized, wrongly delimited, uppercase, or carries an
    all-zero trace or span id returns ``None`` — the caller mints a
    fresh context instead of propagating a mangled one.
    """
    if not value:
        return None
    cleaned = value.strip()
    if len(cleaned) > MAX_TRACEPARENT_LEN:
        return None
    match = _TRACEPARENT_RE.match(cleaned)
    if match is None:
        return None
    trace_id = match.group("trace_id")
    span_id = match.group("span_id")
    if trace_id == "0" * 32 or span_id == "0" * 16:
        return None
    return trace_id, span_id


def trace_context_from_header(value: str | None) -> tuple[str, str]:
    """Honour a well-formed inbound ``traceparent`` or mint a fresh root.

    Returns the ``(trace_id, parent_span_id)`` pair to install with
    :func:`repro.obs.tracing.trace_context`; a fresh root has an empty
    parent id, so the first span opened under it becomes the trace root.
    """
    parsed = parse_traceparent(value)
    if parsed is not None:
        return parsed
    return new_trace_id(), ""


def format_traceparent(trace_id: str, span_id: str) -> str:
    """Render a ``traceparent`` header value (sampled flag set)."""
    return f"00-{trace_id}-{span_id}-01"


def current_traceparent() -> str | None:
    """An outbound ``traceparent`` for the ambient trace, or ``None``.

    The parent half is the innermost open traced span's id; when no span
    has recorded one (span ring disabled), an ephemeral span id is
    minted so the *trace id* still propagates downstream.
    """
    context = tracing.current_trace_context()
    if context is None:
        return None
    trace_id, span_id = context
    return format_traceparent(trace_id, span_id or tracing.new_span_id())


@contextmanager
def request_context(request_id: str | None) -> Iterator[RequestContext | None]:
    """Install a request context for the duration of the ``with`` block.

    ``None`` yields without installing anything, so call sites that may
    run outside a request (direct :class:`MicroBatcher` use in tests)
    need no conditional.
    """
    if request_id is None:
        yield None
        return
    context = RequestContext(request_id)
    token = _CONTEXT.set(context)
    try:
        yield context
    finally:
        _CONTEXT.reset(token)


def current_request_id() -> str | None:
    """The active request id, or ``None`` outside a request."""
    context = _CONTEXT.get()
    return context.request_id if context is not None else None


def annotate(**fields: Any) -> None:
    """Attach access-log fields to the active request (no-op outside)."""
    context = _CONTEXT.get()
    if context is not None:
        context.annotations.update(fields)


def current_annotations() -> dict[str, Any]:
    """Annotations accumulated on the active request (empty outside)."""
    context = _CONTEXT.get()
    return dict(context.annotations) if context is not None else {}


#: Process-wide fleet identity (``w0``..``wN-1``), set once at worker
#: startup.  ``None`` means "not a fleet worker" (single-process serve,
#: tests, CLI runs) and adds nothing anywhere.
_WORKER_ID: str | None = None


def set_worker_id(worker: str | None) -> None:
    """Declare this process's fleet worker id (``None`` clears it).

    Stamped into every span's ``args`` (via the context provider below)
    and into every access-log record (the server annotates it), so a
    merged fleet trace or log attributes work to the worker that did it.
    """
    global _WORKER_ID
    _WORKER_ID = worker or None


def current_worker_id() -> str | None:
    """This process's fleet worker id, or ``None`` outside a fleet."""
    return _WORKER_ID


def _span_context() -> dict[str, Any]:
    """Provider hook: stamp request id + worker id into every live span."""
    out: dict[str, Any] = {}
    if _WORKER_ID is not None:
        out["worker"] = _WORKER_ID
    context = _CONTEXT.get()
    if context is not None:
        out["request_id"] = context.request_id
    return out


tracing.set_context_provider(_span_context)


# -- the span ring buffer ------------------------------------------------


class RingTracer(Tracer):
    """A tracer whose event store is a bounded ring.

    Appends are GIL-atomic, so the event-loop thread and the batch
    worker can both record spans without a lock; readers snapshot with
    ``list(...)``.  When the ring is full the oldest spans fall off —
    the right trade for a long-lived server where ``/v1/debug/trace``
    only ever wants the recent past.
    """

    def __init__(
        self,
        capacity: int = 4096,
        pid: int = 0,
        tid: int = 0,
        name: str = "service",
        sink: Callable[[dict[str, Any]], None] | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        super().__init__(pid=pid, tid=tid, name=name)
        self.capacity = capacity
        self.recorded = 0
        #: Optional per-event tap (the span spool's ``append``); called
        #: with each finished span before it lands in the ring.
        self.sink = sink
        self.events = _RingEvents(self, capacity)  # type: ignore[assignment]

    def tail(self, last: int | None = None) -> list[dict[str, Any]]:
        """The most recent ``last`` span events (all when ``None``)."""
        events = list(self.events)
        if last is None:
            return events
        if last <= 0:
            return []
        return events[-last:]


class _RingEvents(deque):
    """Bounded event deque that also counts total appends."""

    def __init__(self, tracer: RingTracer, capacity: int) -> None:
        super().__init__(maxlen=capacity)
        self._tracer = tracer

    def append(self, event: dict[str, Any]) -> None:  # type: ignore[override]
        self._tracer.recorded += 1
        sink = self._tracer.sink
        if sink is not None:
            sink(event)
        super().append(event)


def trace_tail_document(
    tracer: Tracer | None,
    last: int | None = None,
    trace_id: str | None = None,
) -> dict[str, Any]:
    """The ``/v1/debug/trace`` payload: a schema-tagged Chrome trace.

    The document is Perfetto-loadable (``traceEvents`` holds the tail)
    and carries the ring bookkeeping so callers can tell truncation from
    a quiet server, plus a ``clock`` section (``perf_counter`` and the
    wall clock read side by side, and the tracer epoch) so a
    cross-process collector can place the events on the wall clock
    (:func:`wall_clock_events`).  ``trace_id`` filters the tail (after
    the ``last`` cut) to one request's spans.
    """
    clock = {
        "perf_counter": time.perf_counter(),
        "wall": time.time(),
        "epoch": tracer.epoch if tracer is not None else None,
    }
    if tracer is None:
        return {
            "schema": TRACE_TAIL_SCHEMA,
            "enabled": False,
            "traceEvents": [],
            "displayTimeUnit": "ms",
            "clock": clock,
            "otherData": {"producer": "repro.obs.live"},
        }
    if isinstance(tracer, RingTracer):
        events = tracer.tail(last)
        ring = {"capacity": tracer.capacity, "recorded": tracer.recorded}
    else:
        events = list(tracer.events)
        if last is not None:
            events = events[-last:] if last > 0 else []
        ring = {"capacity": None, "recorded": len(tracer.events)}
    if trace_id is not None:
        events = [
            event
            for event in events
            if event.get("args", {}).get("trace_id") == trace_id
        ]
    document = tracer.chrome_trace()
    document["traceEvents"] = [
        event for event in document["traceEvents"] if event.get("ph") == "M"
    ] + events
    document["schema"] = TRACE_TAIL_SCHEMA
    document["enabled"] = True
    document["ring"] = ring
    document["clock"] = clock
    return document


def wall_clock_events(document: dict[str, Any]) -> list[dict[str, Any]]:
    """A trace-tail document's events with ``ts`` in wall-clock µs.

    Span timestamps are ``perf_counter`` offsets from the tracer epoch,
    which mean nothing outside their process; the document's ``clock``
    block (``perf_counter`` and wall clock read together) maps them onto
    the wall clock every process on the host shares — the input
    :func:`repro.obs.tracing.merge_timelines` expects.  Metadata events
    pass through; a disabled ring yields no events.
    """
    clock = document["clock"]
    if clock["epoch"] is None:
        return []
    shift_us = (clock["wall"] - clock["perf_counter"] + clock["epoch"]) * 1e6
    return [
        event
        if event.get("ph") == "M"
        else {**event, "ts": event["ts"] + shift_us}
        for event in document["traceEvents"]
    ]


# -- rolling-window SLIs -------------------------------------------------


class QuantileSketch:
    """Log-spaced latency histogram with deterministic quantiles.

    Values (milliseconds) land in one of :data:`N_BINS` bins whose edges
    grow geometrically by :data:`GROWTH` from :data:`MIN_VALUE_MS`; a
    quantile query walks the cumulative counts to the nearest-rank bin
    and reports that bin's upper edge.  Memory is a flat int list, the
    answer never depends on arrival order, and the relative resolution
    is ``GROWTH - 1`` (~10%).
    """

    GROWTH = 1.1
    MIN_VALUE_MS = 1e-3
    N_BINS = 192  # upper edge ~8.4e4 ms; larger values clamp to the top bin

    __slots__ = ("counts", "total")

    def __init__(self) -> None:
        self.counts = [0] * self.N_BINS
        self.total = 0

    _LOG_GROWTH = math.log(GROWTH)

    def _bin_of(self, value_ms: float) -> int:
        if value_ms <= self.MIN_VALUE_MS:
            return 0
        index = int(math.log(value_ms / self.MIN_VALUE_MS) / self._LOG_GROWTH)
        return min(index, self.N_BINS - 1)

    def add(self, value_ms: float) -> None:
        """Fold one latency observation into the sketch."""
        self.counts[self._bin_of(value_ms)] += 1
        self.total += 1

    def merge(self, other: "QuantileSketch") -> None:
        """Fold another sketch into this one (bin-wise sum)."""
        for i, count in enumerate(other.counts):
            self.counts[i] += count
        self.total += other.total

    def upper_edge(self, index: int) -> float:
        """The reported value for a quantile landing in bin ``index``."""
        return self.MIN_VALUE_MS * self.GROWTH ** (index + 1)

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile (``q`` in [0, 1]); 0.0 on an empty sketch."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"q must be within [0, 1], got {q}")
        if self.total == 0:
            return 0.0
        rank = max(1, math.ceil(q * self.total))
        seen = 0
        for index, count in enumerate(self.counts):
            seen += count
            if seen >= rank:
                return self.upper_edge(index)
        return self.upper_edge(self.N_BINS - 1)  # pragma: no cover


#: The quantiles every endpoint summary reports, in exposition order.
SLI_QUANTILES = (("0.5", 0.5), ("0.95", 0.95), ("0.99", 0.99))


class _WindowEntry:
    """Per-(bucket, endpoint) accumulation."""

    __slots__ = (
        "count", "errors", "latency_sum_ms", "sketch",
        "slow_ms", "slow_trace_id",
    )

    def __init__(self) -> None:
        self.count = 0
        self.errors = 0
        self.latency_sum_ms = 0.0
        self.sketch = QuantileSketch()
        # The slowest traced request in this entry — the exemplar
        # surfaced next to the p99 (the window max is always an upper
        # witness for the p99 estimate).
        self.slow_ms = -1.0
        self.slow_trace_id: str | None = None


class RollingWindow:
    """Time-bucketed sliding-window SLI aggregator.

    The window is ``n_buckets`` fixed-width time buckets; a record lands
    in the bucket its timestamp falls into, and a summary merges every
    bucket younger than the window.  The clock is injectable
    (``time.monotonic`` by default) so tests can march time forward
    deterministically.  Writers and readers share the event-loop thread
    in the server, so no locking is needed.
    """

    def __init__(
        self,
        window_s: float = 60.0,
        bucket_s: float = 1.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if bucket_s <= 0 or window_s < bucket_s:
            raise ValueError(
                f"need window_s >= bucket_s > 0, got {window_s}/{bucket_s}"
            )
        self.window_s = window_s
        self.bucket_s = bucket_s
        self.n_buckets = max(1, int(round(window_s / bucket_s)))
        self._clock = clock
        self._buckets: OrderedDict[int, dict[str, _WindowEntry]] = OrderedDict()

    def _prune(self, now_index: int) -> None:
        floor = now_index - self.n_buckets + 1
        while self._buckets:
            oldest = next(iter(self._buckets))
            if oldest >= floor:
                break
            del self._buckets[oldest]

    def record(
        self,
        endpoint: str,
        status: int,
        latency_ms: float,
        trace_id: str | None = None,
    ) -> None:
        """Fold one served request into the current bucket.

        ``trace_id`` (when the request carried a trace context) feeds
        the per-endpoint exemplar: the slowest traced request in the
        window is exposed next to the p99 quantile.
        """
        index = int(self._clock() / self.bucket_s)
        self._prune(index)
        bucket = self._buckets.get(index)
        if bucket is None:
            bucket = self._buckets[index] = {}
        entry = bucket.get(endpoint)
        if entry is None:
            entry = bucket[endpoint] = _WindowEntry()
        entry.count += 1
        if status >= 500:
            entry.errors += 1
        entry.latency_sum_ms += latency_ms
        entry.sketch.add(latency_ms)
        if trace_id is not None and latency_ms >= entry.slow_ms:
            entry.slow_ms = latency_ms
            entry.slow_trace_id = trace_id

    def summary(self) -> dict[str, dict[str, Any]]:
        """Per-endpoint SLIs over the live window, endpoints sorted."""
        index = int(self._clock() / self.bucket_s)
        self._prune(index)
        merged: dict[str, _WindowEntry] = {}
        for bucket in self._buckets.values():
            for endpoint, entry in bucket.items():
                into = merged.get(endpoint)
                if into is None:
                    into = merged[endpoint] = _WindowEntry()
                into.count += entry.count
                into.errors += entry.errors
                into.latency_sum_ms += entry.latency_sum_ms
                into.sketch.merge(entry.sketch)
                if (
                    entry.slow_trace_id is not None
                    and entry.slow_ms >= into.slow_ms
                ):
                    into.slow_ms = entry.slow_ms
                    into.slow_trace_id = entry.slow_trace_id
        out: dict[str, dict[str, Any]] = {}
        for endpoint, entry in sorted(merged.items()):
            view: dict[str, Any] = {
                "count": entry.count,
                "errors": entry.errors,
                "latency_sum_ms": entry.latency_sum_ms,
                "quantiles_ms": {
                    label: entry.sketch.quantile(q)
                    for label, q in SLI_QUANTILES
                },
            }
            if entry.slow_trace_id is not None:
                view["exemplar"] = {
                    "trace_id": entry.slow_trace_id,
                    "latency_ms": entry.slow_ms,
                }
            out[endpoint] = view
        return out


# -- Prometheus text exposition ------------------------------------------

_NAME_SANITIZE = re.compile(r"[^a-zA-Z0-9_:]")
_KEY_RE = re.compile(r"^(?P<name>[^{]+)(?:\{(?P<labels>.*)\})?$")

#: One exposition sample line: ``name{labels} value`` with an optional
#: OpenMetrics-style exemplar suffix (`` # {labels} value``).
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})? "
    r"(?P<value>[^ ]+)"
    r"(?: # \{(?P<exemplar_labels>[^}]*)\} (?P<exemplar_value>[^ ]+))?$"
)


def _metric_name(raw: str, suffix: str = "") -> str:
    return "repro_" + _NAME_SANITIZE.sub("_", raw.replace(".", "_")) + suffix


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _split_key(key: str) -> tuple[str, dict[str, str]]:
    """Parse a registry key (``name{k=v,...}``) into name + labels."""
    match = _KEY_RE.match(key)
    if match is None:  # pragma: no cover - registry keys always match
        return key, {}
    labels: dict[str, str] = {}
    raw = match.group("labels")
    if raw:
        for item in raw.split(","):
            name, _, value = item.partition("=")
            labels[name] = value
    return match.group("name"), labels


def _format_labels(labels: dict[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label(str(value))}"'
        for name, value in sorted(labels.items())
    )
    return "{" + inner + "}"


def _format_value(value: float) -> str:
    if isinstance(value, bool):  # pragma: no cover - defensive
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def render_prometheus(
    snapshot: dict[str, Any],
    window_summary: dict[str, dict[str, Any]] | None = None,
    gauges: dict[str, float] | None = None,
) -> str:
    """Render ``GET /metrics`` (Prometheus text exposition 0.0.4).

    ``snapshot`` is a :meth:`MetricsRegistry.snapshot`; its counters
    become ``repro_<name>_total`` counter families and its histograms
    become ``_count``/``_sum``/``_min``/``_max`` gauge families.
    ``window_summary`` (from :meth:`RollingWindow.summary`) becomes the
    ``repro_sli_*`` families — per-endpoint rolling-window request and
    error counts plus p50/p95/p99 latency quantiles.  ``gauges`` are
    point-in-time values (queue depth, readiness, cache occupancy).
    """
    lines: list[str] = []

    families: dict[str, list[tuple[dict[str, str], float]]] = {}
    for key, value in snapshot.get("counters", {}).items():
        raw, labels = _split_key(key)
        families.setdefault(_metric_name(raw, "_total"), []).append(
            (labels, value)
        )
    for name in sorted(families):
        lines.append(f"# TYPE {name} counter")
        for labels, value in families[name]:
            lines.append(f"{name}{_format_labels(labels)} {_format_value(value)}")

    hist_families: dict[str, list[tuple[dict[str, str], dict[str, float]]]] = {}
    for key, entry in snapshot.get("histograms", {}).items():
        raw, labels = _split_key(key)
        hist_families.setdefault(_metric_name(raw), []).append((labels, entry))
    for name in sorted(hist_families):
        for suffix in ("count", "sum", "min", "max"):
            lines.append(f"# TYPE {name}_{suffix} gauge")
            for labels, entry in hist_families[name]:
                lines.append(
                    f"{name}_{suffix}{_format_labels(labels)} "
                    f"{_format_value(entry[suffix])}"
                )

    for name, value in sorted((gauges or {}).items()):
        metric = _metric_name(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_format_value(value)}")

    if window_summary:
        lines.append("# TYPE repro_sli_requests_window gauge")
        for endpoint, entry in window_summary.items():
            lines.append(
                "repro_sli_requests_window"
                f'{_format_labels({"endpoint": endpoint})} '
                f"{_format_value(entry['count'])}"
            )
        lines.append("# TYPE repro_sli_errors_window gauge")
        for endpoint, entry in window_summary.items():
            lines.append(
                "repro_sli_errors_window"
                f'{_format_labels({"endpoint": endpoint})} '
                f"{_format_value(entry['errors'])}"
            )
        lines.append("# TYPE repro_sli_request_latency_ms summary")
        for endpoint, entry in window_summary.items():
            exemplar = entry.get("exemplar")
            for label, _ in SLI_QUANTILES:
                value = entry["quantiles_ms"][label]
                sample = (
                    "repro_sli_request_latency_ms"
                    f'{_format_labels({"endpoint": endpoint, "quantile": label})} '
                    f"{_format_value(round(value, 6))}"
                )
                if label == "0.99" and exemplar is not None:
                    # OpenMetrics-style exemplar: the slowest traced
                    # request in the window, linking the quantile to a
                    # renderable trace (`/v1/debug/trace?trace_id=...`).
                    sample += (
                        f' # {{trace_id="{exemplar["trace_id"]}"}} '
                        f"{_format_value(round(exemplar['latency_ms'], 6))}"
                    )
                lines.append(sample)
            lines.append(
                "repro_sli_request_latency_ms_count"
                f'{_format_labels({"endpoint": endpoint})} '
                f"{_format_value(entry['count'])}"
            )
            lines.append(
                "repro_sli_request_latency_ms_sum"
                f'{_format_labels({"endpoint": endpoint})} '
                f"{_format_value(round(entry['latency_sum_ms'], 6))}"
            )

    return "\n".join(lines) + "\n"


def parse_exposition(text: str) -> dict[str, list[tuple[dict[str, str], float]]]:
    """Structurally parse exposition text back into samples.

    Returns ``{metric_name: [(labels, value), ...]}`` and raises
    ``ValueError`` on any line that is neither a comment nor a valid
    sample — the shared validity check for tests and the CI smoke.
    """
    samples: dict[str, list[tuple[dict[str, str], float]]] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {lineno}: not a valid sample: {line!r}")
        labels: dict[str, str] = {}
        raw = match.group("labels")
        if raw:
            for item in re.findall(r'(\w+)="((?:[^"\\]|\\.)*)"', raw):
                labels[item[0]] = (
                    item[1]
                    .replace("\\n", "\n")
                    .replace('\\"', '"')
                    .replace("\\\\", "\\")
                )
        try:
            value = float(match.group("value"))
        except ValueError as error:
            raise ValueError(
                f"line {lineno}: bad sample value: {line!r}"
            ) from error
        if match.group("exemplar_value") is not None:
            try:
                float(match.group("exemplar_value"))
            except ValueError as error:
                raise ValueError(
                    f"line {lineno}: bad exemplar value: {line!r}"
                ) from error
        samples.setdefault(match.group("name"), []).append((labels, value))
    if not text.endswith("\n"):
        raise ValueError("exposition text must end with a newline")
    return samples
