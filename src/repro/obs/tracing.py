"""Span tracing with a Chrome-trace-event exporter.

A *span* is a named wall-clock interval with optional key/value
arguments.  Spans nest naturally — the exporter emits Chrome
``"ph": "X"`` (complete) events, which ``chrome://tracing`` and
`Perfetto <https://ui.perfetto.dev>`_ render as a flame graph purely
from interval containment, so nesting needs no explicit bookkeeping.

Design constraints (see ``docs/OBSERVABILITY.md``):

* **Near-zero overhead when disabled.**  Tracing is off by default;
  :func:`span` then returns a shared no-op context manager after a
  single module-global load.  No clock is read, nothing is allocated
  beyond the callers' keyword dict.
* **Mergeable across processes.**  Worker processes (the runner's
  ``--jobs N``) collect events into their own :class:`Tracer` and ship
  the plain-dict event list back over the pipe; the parent adopts them
  onto a distinct Chrome thread id so each worker gets its own track.

Usage::

    from repro.obs import tracing

    tracer = tracing.enable_tracing()
    with tracing.span("phase1.extract", trace="nasa7", line_size=32):
        ...
    tracer.write("trace.json")   # open in Perfetto
"""

from __future__ import annotations

import threading
import time
import uuid
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from contextvars import ContextVar
from pathlib import Path
from typing import Any

from repro.util.jsonout import write_json

#: Chrome trace category attached to every span event.
CATEGORY = "repro"

#: Ambient distributed-trace identity: ``(trace_id, span_id)`` where the
#: span id is the innermost open traced span (or the inbound parent id
#: before the first span opens, or ``""`` for a fresh root).  ``None``
#: outside any traced request, which keeps non-request spans and the
#: tracing-off fast path byte-identical to the pre-tracing behaviour.
_TRACE_CONTEXT: ContextVar[tuple[str, str] | None] = ContextVar(
    "repro_trace_context", default=None
)


def new_span_id() -> str:
    """A fresh 16-hex-character span id."""
    return uuid.uuid4().hex[:16]


def current_trace_context() -> tuple[str, str] | None:
    """The ambient ``(trace_id, span_id)`` pair, or ``None``.

    The span id half is the id callers should use as the *parent* of any
    work they hand off (an outbound ``traceparent``, a batch-thread
    re-entry); it may be ``""`` when the context was minted fresh and no
    traced span has opened yet.
    """
    return _TRACE_CONTEXT.get()


@contextmanager
def trace_context(
    context: tuple[str, str] | None,
) -> Iterator[tuple[str, str] | None]:
    """Install a ``(trace_id, parent_span_id)`` pair for a ``with`` block.

    Every span opened inside the block mints its own span id, stamps
    ``trace_id``/``span_id``/``parent_span_id`` into its args, and
    becomes the parent of spans nested below it.  ``None`` yields
    without installing anything, so call sites that may run outside a
    request need no conditional (mirrors
    :func:`repro.obs.live.request_context`).
    """
    if context is None:
        yield None
        return
    token = _TRACE_CONTEXT.set(context)
    try:
        yield context
    finally:
        _TRACE_CONTEXT.reset(token)


class _NullSpan:
    """Shared no-op span handed out while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, **args: Any) -> "_NullSpan":
        """Accept (and drop) late argument updates."""
        return self


_NULL_SPAN = _NullSpan()


#: Per-thread stacks of open span names (``{thread_ident: [name, ...]}``),
#: or ``None`` while no profiler is sampling.  The sampling profiler
#: (:mod:`repro.obs.profile`) installs a plain dict here so it can read
#: every thread's innermost active span from its sampler thread; list
#: append/pop and dict access are GIL-atomic, so no lock is needed.
_PHASE_STACKS: dict[int, list[str]] | None = None


def _push_phase(name: str) -> list[str] | None:
    """Push ``name`` onto this thread's phase stack (if tracking is on).

    Returns the stack the name landed on so the span can pop *that*
    list on exit even if the profiler swaps the tracking dict mid-span.
    """
    stacks = _PHASE_STACKS
    if stacks is None:
        return None
    ident = threading.get_ident()
    stack = stacks.get(ident)
    if stack is None:
        stack = stacks[ident] = []
    stack.append(name)
    return stack


class _PhaseSpan:
    """Span recorded only for phase attribution (tracing itself is off).

    Handed out while a profiler's phase tracking is active but no tracer
    is installed: no clock is read and no event is allocated — the span
    only pushes/pops its name on the thread's phase stack so samples can
    be bucketed by the innermost active span.
    """

    __slots__ = ("name", "_stack")

    def __init__(self, name: str) -> None:
        self.name = name
        self._stack: list[str] | None = None

    def set(self, **args: Any) -> "_PhaseSpan":
        """Accept (and drop) late argument updates."""
        return self

    def __enter__(self) -> "_PhaseSpan":
        self._stack = _push_phase(self.name)
        return self

    def __exit__(self, *exc: object) -> bool:
        if self._stack:
            self._stack.pop()
        return False


class _LiveSpan:
    """One open span; appends a complete event to its tracer on exit.

    While a trace context is installed (:func:`trace_context`), the span
    mints its own span id on entry, stamps the trace identity into its
    ``args``, and becomes the ambient parent for spans opened below it —
    including across ``await`` points, since the identity rides a
    :mod:`contextvars` context.
    """

    __slots__ = (
        "_tracer", "name", "args", "_start", "_phase_stack",
        "span_id", "_trace_token",
    )

    def __init__(self, tracer: "Tracer", name: str, args: dict[str, Any]) -> None:
        self._tracer = tracer
        self.name = name
        self.args = args
        self._start = 0.0
        self._phase_stack: list[str] | None = None
        self.span_id: str | None = None
        self._trace_token = None

    def set(self, **args: Any) -> "_LiveSpan":
        """Attach arguments discovered mid-span (e.g. result counts)."""
        self.args.update(args)
        return self

    def __enter__(self) -> "_LiveSpan":
        self._phase_stack = _push_phase(self.name)
        context = _TRACE_CONTEXT.get()
        if context is not None:
            trace_id, parent_id = context
            self.span_id = new_span_id()
            self.args["trace_id"] = trace_id
            self.args["span_id"] = self.span_id
            if parent_id:
                self.args["parent_span_id"] = parent_id
            self._trace_token = _TRACE_CONTEXT.set((trace_id, self.span_id))
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        end = time.perf_counter()
        if self._trace_token is not None:
            _TRACE_CONTEXT.reset(self._trace_token)
            self._trace_token = None
        if self._phase_stack:
            self._phase_stack.pop()
        tracer = self._tracer
        tracer.events.append(
            {
                "name": self.name,
                "cat": CATEGORY,
                "ph": "X",
                "ts": (self._start - tracer.epoch) * 1e6,
                "dur": (end - self._start) * 1e6,
                "pid": tracer.pid,
                "tid": tracer.tid,
                "args": self.args,
            }
        )
        return False


class Tracer:
    """Collects span events; exports the Chrome trace-event format.

    Timestamps are microseconds relative to the tracer's creation
    (``time.perf_counter`` based), which is what the Chrome ``ts`` field
    expects.  Events adopted from worker processes keep their own epoch
    and are placed on separate thread tracks instead of being rebased.
    """

    def __init__(self, pid: int = 0, tid: int = 0, name: str = "runner") -> None:
        self.pid = pid
        self.tid = tid
        self.epoch = time.perf_counter()
        self.events: list[dict[str, Any]] = []
        self._thread_names: dict[int, str] = {tid: name}

    def span(self, name: str, **args: Any) -> _LiveSpan:
        """Open a span on this tracer (context manager)."""
        return _LiveSpan(self, name, args)

    def adopt(
        self,
        events: list[dict[str, Any]],
        tid: int | None = None,
        name: str | None = None,
    ) -> None:
        """Merge events collected in another process onto this trace.

        ``tid`` moves the batch onto its own thread track; ``name``
        labels that track in the viewer.
        """
        if tid is None:
            self.events.extend(events)
            return
        if name is not None:
            self._thread_names[tid] = name
        for event in events:
            rebased = dict(event)
            rebased["pid"] = self.pid
            rebased["tid"] = tid
            self.events.append(rebased)

    def chrome_trace(self) -> dict[str, Any]:
        """The full trace document (``{"traceEvents": [...], ...}``)."""
        meta = [
            {
                "name": "thread_name",
                "ph": "M",
                "pid": self.pid,
                "tid": tid,
                "args": {"name": label},
            }
            for tid, label in sorted(self._thread_names.items())
        ]
        return {
            "traceEvents": meta + list(self.events),
            "displayTimeUnit": "ms",
            "otherData": {"producer": "repro.obs.tracing"},
        }

    def write(self, path: str | Path) -> Path:
        """Write the Chrome trace JSON; load it in Perfetto to view."""
        return write_json(path, self.chrome_trace())


def merge_timelines(
    tracks: list[tuple[str, list[dict[str, Any]]]],
) -> dict[str, Any]:
    """One Chrome trace from per-process event lists on one wall clock.

    ``tracks`` holds ``(process name, events)`` per process, each timed
    event's ``ts`` in wall-clock microseconds — every process on a host
    reads the same wall clock, so no handshake is needed to align them.
    Each list becomes a process track whose pid is its position; the
    earliest timestamp moves to 0 (Perfetto dislikes negative ones); and
    each event whose ``parent_span_id`` names a span on *another* track
    gets an ``s``/``f`` flow pair (``cat: repro.flow``) stitching the
    cross-process edge.  Both the fleet router's live
    ``/v1/debug/trace`` and the offline ``repro obs timeline`` use it.
    """
    meta: list[dict[str, Any]] = []
    events: list[dict[str, Any]] = []
    spans: dict[str, dict[str, Any]] = {}
    for pid, (name, track) in enumerate(tracks):
        meta.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": name},
            }
        )
        for event in track:
            event = {**event, "pid": pid}
            if event.get("ph") == "M":
                meta.append(event)
                continue
            events.append(event)
            span_id = event.get("args", {}).get("span_id")
            if span_id:
                spans[span_id] = event
    flows: list[dict[str, Any]] = []
    for event in events:
        parent = spans.get(event.get("args", {}).get("parent_span_id", ""))
        if parent is None or parent["pid"] == event["pid"]:
            continue
        for phase, end in (("s", parent), ("f", event)):
            flows.append(
                {
                    "name": "forward",
                    "cat": "repro.flow",
                    "id": parent["args"]["span_id"],
                    "ph": phase,
                    "ts": end["ts"],
                    "pid": end["pid"],
                    "tid": end["tid"],
                }
            )
        flows[-1]["bp"] = "e"  # the finish binds to the child's slice
    base = min((event["ts"] for event in events), default=0.0)
    for event in events + flows:
        event["ts"] = round(event["ts"] - base, 3)
    events.sort(key=lambda event: event["ts"])
    return {"traceEvents": meta + events + flows, "displayTimeUnit": "ms"}


#: The process-wide tracer, or ``None`` while tracing is disabled.
_ACTIVE: Tracer | None = None

#: Optional hook returning ambient span arguments (the serving layer's
#: request id; see :mod:`repro.obs.live`).  Only consulted while a
#: tracer is active, so the disabled fast path is untouched.
_CONTEXT_PROVIDER: Callable[[], dict[str, Any]] | None = None


def set_context_provider(
    provider: Callable[[], dict[str, Any]] | None,
) -> None:
    """Install the ambient-span-argument hook (``None`` to clear).

    The provider is called once per span *open* while tracing is
    enabled; whatever it returns is merged under the caller's explicit
    arguments, so an explicit ``request_id=...`` always wins.
    """
    global _CONTEXT_PROVIDER
    _CONTEXT_PROVIDER = provider


def enable_tracing(tid: int = 0, name: str = "runner") -> Tracer:
    """Install (and return) a fresh process-wide tracer."""
    global _ACTIVE
    _ACTIVE = Tracer(tid=tid, name=name)
    return _ACTIVE


def install_tracer(tracer: Tracer) -> Tracer:
    """Install a caller-built tracer (e.g. a bounded ring) process-wide."""
    global _ACTIVE
    _ACTIVE = tracer
    return tracer


def disable_tracing() -> Tracer | None:
    """Stop collecting; returns the tracer that was active, if any."""
    global _ACTIVE
    tracer, _ACTIVE = _ACTIVE, None
    return tracer


def tracing_enabled() -> bool:
    """Whether spans are currently being recorded."""
    return _ACTIVE is not None


def set_phase_stacks(stacks: dict[int, list[str]] | None) -> None:
    """Install (or clear, with ``None``) the profiler's phase tracking.

    While a dict is installed, every opened span pushes its name onto
    ``stacks[thread_ident]`` and pops it on exit — even when no tracer
    is active — so the sampling profiler can attribute wall-clock
    samples to the innermost open span per thread.  Owned by
    :mod:`repro.obs.profile`; everything else should treat this as
    read-only.
    """
    global _PHASE_STACKS
    _PHASE_STACKS = stacks


def phase_stacks() -> dict[int, list[str]] | None:
    """The installed phase-tracking dict, or ``None``."""
    return _PHASE_STACKS


def spans_active() -> bool:
    """Whether opening spans has any observable effect right now.

    True while a tracer is recording *or* a profiler's phase tracking is
    installed.  Hot paths that skip their span entirely for speed (the
    replay kernels) must gate on this, not :func:`tracing_enabled`, or
    profiled runs lose their phase attribution.
    """
    return _ACTIVE is not None or _PHASE_STACKS is not None


def current_tracer() -> Tracer | None:
    """The active tracer, or ``None``."""
    return _ACTIVE


def span(name: str, **args: Any) -> _LiveSpan | _PhaseSpan | _NullSpan:
    """Open a span on the active tracer; no-op when tracing is off.

    The fast path is two global loads and one shared object return —
    safe to leave in hot code permanently.  While a profiler's phase
    tracking is installed but no tracer is active, a lightweight
    phase-only span is returned instead (no clock read, no event).
    """
    tracer = _ACTIVE
    if tracer is None:
        if _PHASE_STACKS is not None:
            return _PhaseSpan(name)
        return _NULL_SPAN
    provider = _CONTEXT_PROVIDER
    if provider is not None:
        ambient = provider()
        if ambient:
            args = {**ambient, **args}
    return _LiveSpan(tracer, name, args)
