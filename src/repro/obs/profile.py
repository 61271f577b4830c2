"""Continuous profiling: a stdlib-only wall-clock sampling profiler.

The paper's whole method is attributing cycles to architectural
features (Eq. 2); this module gives the *runtime itself* the same
treatment.  A :class:`SamplingProfiler` runs a background thread that
polls :func:`sys._current_frames` at a configurable rate (the
always-on, low-overhead design argued by Google-Wide Profiling), folds
each thread's stack into a collapsed-stack aggregate, and — the part
that makes the numbers actionable — joins every sample against the
**innermost open tracing span** of the sampled thread (the span-joined
attribution style of Dapper), yielding a self-time-per-phase table
keyed by the same span names the Chrome-trace export shows
(``service.phase2``, ``phase1.extract``, ``phase2.replay``, …).

Outputs (one ``repro.obs.profile/1`` JSON document):

* ``folded`` — deterministic collapsed stacks
  (``thread;frame;frame count``), directly loadable by flamegraph.pl
  or speedscope; :func:`folded_text` renders the plain-text form.
* ``phases`` — per-phase sample counts, self seconds, and fractions.
* ``heap`` — optional :mod:`tracemalloc` top-N allocation sites.
* :func:`chrome_trace` — a Perfetto-loadable flame layout synthesized
  from the folded stacks (left-heavy, one track per thread).

Cost contract: while no profiler is running **nothing** changes — no
sampler thread exists, :func:`repro.obs.tracing.span` keeps its
two-global-load fast path, and every artifact the repo emits is
byte-identical (the determinism pins stay green).  While sampling, the
sampler wakes ``hz`` times a second and walks every thread's stack
under the GIL; ``benchmarks/bench_engine_replay.py`` measures the
overhead (committed in ``BENCH_engine.json``, budgeted at 5%).

Usage::

    from repro.obs.profile import SamplingProfiler

    with SamplingProfiler(hz=97) as profiler:
        run_workload()
    write_json("run.profile.json", profiler.document())

Only one profiler may run per process (phase tracking and
``tracemalloc`` are process-global); a second ``start()`` raises
:class:`ProfilerActiveError` — the service maps it to HTTP 409.
"""

from __future__ import annotations

import platform
import sys
import threading
import time
import uuid
from datetime import datetime, timezone
from typing import Any

from repro.obs import tracing

#: Schema tag carried by every profile document.
PROFILE_SCHEMA = "repro.obs.profile/1"

#: Default sampling rate.  Prime, so the sampler cannot lock step with
#: periodic work (supervisor polls, bucket boundaries) and systematically
#: over- or under-sample one phase.
DEFAULT_HZ = 97

#: Stack frames deeper than this are truncated (recursion guard).
MAX_STACK_DEPTH = 128

#: Phase bucket for samples taken while the thread had no open span.
OTHER_PHASE = "(other)"

#: Heap sites reported when heap tracking is enabled.
DEFAULT_HEAP_TOP = 20

#: Path markers used to shorten frame filenames to repo-relative form.
_PATH_MARKERS = ("/repro/", "/benchmarks/", "/scripts/", "/tests/")


class ProfilerActiveError(RuntimeError):
    """A profiler is already sampling this process."""


def new_profile_id() -> str:
    """A fresh ``prof-`` id (echoed into service access-log records)."""
    return "prof-" + uuid.uuid4().hex[:12]


def _frame_label(filename: str, funcname: str) -> str:
    """One folded-stack frame: shortened filename + function name.

    Filenames are trimmed to the last repo-meaningful component so the
    folded output is machine-independent; separators the folded format
    reserves (``;`` between frames, space before the count) are
    replaced.
    """
    posix = filename.replace("\\", "/")
    for marker in _PATH_MARKERS:
        index = posix.rfind(marker)
        if index >= 0:
            posix = posix[index + 1 :]
            break
    else:
        posix = posix.rpartition("/")[2] or posix
    label = f"{posix}:{funcname}"
    return label.replace(";", ",").replace(" ", "_")


class SamplingProfiler:
    """Wall-clock sampling profiler with span-joined phase attribution.

    ``hz`` bounds the sampling rate (1..1000).  ``heap=True`` also
    starts :mod:`tracemalloc` for the window and reports the top
    ``heap_top`` allocation sites by retained size at stop time.
    """

    def __init__(
        self,
        hz: int = DEFAULT_HZ,
        heap: bool = False,
        heap_top: int = DEFAULT_HEAP_TOP,
        profile_id: str | None = None,
    ) -> None:
        if not 1 <= hz <= 1000:
            raise ValueError(f"hz must be within [1, 1000], got {hz}")
        if heap_top < 1:
            raise ValueError(f"heap_top must be >= 1, got {heap_top}")
        self.hz = hz
        self.heap = heap
        self.heap_top = heap_top
        self.id = profile_id or new_profile_id()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._phase_stacks: dict[int, list[str]] = {}
        self._stack_counts: dict[tuple[str, tuple[str, ...]], int] = {}
        self._phase_counts: dict[str, int] = {}
        self._thread_counts: dict[str, int] = {}
        self._sweeps = 0
        self._started_at = 0.0
        self._duration = 0.0
        self._heap_report: dict[str, Any] | None = None
        self._own_tracemalloc = False

    # -- lifecycle --------------------------------------------------------

    def start(self) -> "SamplingProfiler":
        """Install phase tracking and start the sampler thread."""
        global _ACTIVE_PROFILER
        with _GUARD:
            if _ACTIVE_PROFILER is not None:
                raise ProfilerActiveError(
                    f"profiler {_ACTIVE_PROFILER.id} is already sampling "
                    f"this process"
                )
            _ACTIVE_PROFILER = self
        if self.heap:
            import tracemalloc

            if not tracemalloc.is_tracing():
                tracemalloc.start()
                self._own_tracemalloc = True
        tracing.set_phase_stacks(self._phase_stacks)
        self._started_at = time.perf_counter()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> "SamplingProfiler":
        """Stop sampling, take the heap snapshot, release the process."""
        global _ACTIVE_PROFILER
        if self._thread is None:
            return self
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None
        self._duration = time.perf_counter() - self._started_at
        if tracing.phase_stacks() is self._phase_stacks:
            tracing.set_phase_stacks(None)
        if self.heap:
            self._heap_report = self._snapshot_heap()
        with _GUARD:
            if _ACTIVE_PROFILER is self:
                _ACTIVE_PROFILER = None
        return self

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # -- the sampler thread -----------------------------------------------

    def _run(self) -> None:
        interval = 1.0 / self.hz
        next_at = time.perf_counter() + interval
        while not self._stop.is_set():
            delay = next_at - time.perf_counter()
            if delay > 0:
                if self._stop.wait(delay):
                    break
            else:
                # Fell behind (a long GIL hold); resync rather than burst.
                next_at = time.perf_counter()
            next_at += interval
            self._sample()

    def _sample(self) -> None:
        own_ident = threading.get_ident()
        names = {t.ident: t.name for t in threading.enumerate()}
        frames = sys._current_frames()
        self._sweeps += 1
        for ident, frame in frames.items():
            if ident == own_ident:
                continue
            stack: list[str] = []
            depth = 0
            while frame is not None and depth < MAX_STACK_DEPTH:
                stack.append(
                    _frame_label(frame.f_code.co_filename, frame.f_code.co_name)
                )
                frame = frame.f_back
                depth += 1
            stack.reverse()
            thread_name = names.get(ident, f"thread-{ident}")
            key = (thread_name, tuple(stack))
            self._stack_counts[key] = self._stack_counts.get(key, 0) + 1
            self._thread_counts[thread_name] = (
                self._thread_counts.get(thread_name, 0) + 1
            )
            phase_stack = self._phase_stacks.get(ident)
            try:
                phase = phase_stack[-1] if phase_stack else OTHER_PHASE
            except IndexError:  # pragma: no cover - popped mid-read
                phase = OTHER_PHASE
            self._phase_counts[phase] = self._phase_counts.get(phase, 0) + 1

    def _snapshot_heap(self) -> dict[str, Any]:
        import tracemalloc

        snapshot = tracemalloc.take_snapshot()
        current, peak = tracemalloc.get_traced_memory()
        if self._own_tracemalloc:
            tracemalloc.stop()
            self._own_tracemalloc = False
        top = []
        for stat in snapshot.statistics("lineno")[: self.heap_top]:
            trace_frame = stat.traceback[0]
            top.append(
                {
                    "site": _frame_label(trace_frame.filename, "")[:-1]
                    + f":{trace_frame.lineno}",
                    "size_kib": round(stat.size / 1024.0, 3),
                    "count": stat.count,
                }
            )
        return {
            "traced_kib": round(current / 1024.0, 3),
            "peak_kib": round(peak / 1024.0, 3),
            "top": top,
        }

    # -- the document -----------------------------------------------------

    def folded_lines(self) -> list[str]:
        """Collapsed stacks, one ``thread;frame;... count`` per line.

        Deterministically sorted (stack text ascending) so two documents
        built from the same aggregate are byte-identical.
        """
        lines = []
        for (thread_name, stack), count in self._stack_counts.items():
            frames = ";".join(
                (thread_name.replace(";", ",").replace(" ", "_"), *stack)
            )
            lines.append((frames, count))
        return [f"{frames} {count}" for frames, count in sorted(lines)]

    def phase_table(self) -> dict[str, dict[str, Any]]:
        """Self-time per innermost span: samples, seconds, fraction.

        Never empty: a window too short to catch a single sample still
        reports a zeroed ``(other)`` row, so every document carries a
        structurally valid table.
        """
        if not self._phase_counts:
            return {OTHER_PHASE: {"samples": 0, "self_s": 0.0, "fraction": 0.0}}
        total = sum(self._phase_counts.values())
        table = {}
        for phase in sorted(self._phase_counts):
            samples = self._phase_counts[phase]
            table[phase] = {
                "samples": samples,
                "self_s": round(samples / self.hz, 6),
                "fraction": round(samples / total, 6) if total else 0.0,
            }
        return table

    def document(self) -> dict[str, Any]:
        """The full ``repro.obs.profile/1`` document (call after stop)."""
        return {
            "schema": PROFILE_SCHEMA,
            "id": self.id,
            "hz": self.hz,
            "duration_s": round(self._duration, 6),
            "samples": self._sweeps,
            "thread_samples": sum(self._thread_counts.values()),
            "threads": {
                name: self._thread_counts[name]
                for name in sorted(self._thread_counts)
            },
            "folded": self.folded_lines(),
            "phases": self.phase_table(),
            "heap": self._heap_report,
            "provenance": {
                "python": platform.python_version(),
                "created_at": datetime.now(timezone.utc).isoformat(
                    timespec="seconds"
                ),
            },
        }


#: The one profiler allowed to sample this process, or ``None``.
_ACTIVE_PROFILER: SamplingProfiler | None = None
_GUARD = threading.Lock()


def active_profiler() -> SamplingProfiler | None:
    """The currently sampling profiler, or ``None``."""
    return _ACTIVE_PROFILER


# -- exports ---------------------------------------------------------------


def folded_text(document: dict[str, Any]) -> str:
    """The collapsed-stack text export (flamegraph.pl / speedscope)."""
    return "\n".join(document["folded"]) + "\n"


def phase_self_seconds(document: dict[str, Any]) -> dict[str, float]:
    """Flatten a document's phase table to ``{phase: self_s}``.

    The view ``bench_history`` entries store and its attribution diffs.
    """
    return {
        phase: float(entry["self_s"])
        for phase, entry in document.get("phases", {}).items()
    }


def chrome_trace(document: dict[str, Any]) -> dict[str, Any]:
    """Synthesize a Perfetto-loadable flame layout from the folded stacks.

    Each thread becomes its own track; sibling frames are laid out
    left-heavy (sorted by name) with widths proportional to sample
    counts (one sample = one sampling period).  The result validates
    against the Chrome-trace schema and renders as a flame graph purely
    from interval containment, like the span exporter's output.
    """
    period_us = 1e6 / document["hz"]

    # Build a per-thread trie of frame -> (weight, children).
    threads: dict[str, dict] = {}
    for line in document["folded"]:
        stack_text, _, count_text = line.rpartition(" ")
        count = int(count_text)
        frames = stack_text.split(";")
        thread_name, frames = frames[0], frames[1:]
        node = threads.setdefault(thread_name, {"weight": 0, "children": {}})
        node["weight"] += count
        for frame in frames:
            node = node["children"].setdefault(
                frame, {"weight": 0, "children": {}}
            )
            node["weight"] += count

    events: list[dict[str, Any]] = []
    for tid, thread_name in enumerate(sorted(threads)):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": tid,
                "args": {"name": thread_name},
            }
        )
        stack = [(threads[thread_name]["children"], 0.0)]
        while stack:
            children, offset = stack.pop()
            for name in sorted(children):
                node = children[name]
                duration = node["weight"] * period_us
                events.append(
                    {
                        "name": name,
                        "cat": "repro.profile",
                        "ph": "X",
                        "ts": offset,
                        "dur": duration,
                        "pid": 0,
                        "tid": tid,
                        "args": {"samples": node["weight"]},
                    }
                )
                if node["children"]:
                    stack.append((node["children"], offset))
                offset += duration
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "producer": "repro.obs.profile",
            "profile_id": document.get("id"),
        },
    }


def main(argv: Any = None) -> int:
    """Export CLI: folded stacks / Perfetto trace from a profile JSON.

    ::

        python -m repro.obs.profile run.profile.json \\
            --folded run.folded --trace run.trace.json
    """
    import argparse
    import json

    from repro.obs.schemas import SchemaError, validate_profile
    from repro.util.jsonout import write_json

    parser = argparse.ArgumentParser(
        prog="repro-obs-profile",
        description="Validate a repro.obs.profile/1 document and export "
        "its folded stacks and/or a Perfetto-loadable flame layout.",
    )
    parser.add_argument("profile", metavar="FILE")
    parser.add_argument(
        "--folded", metavar="OUT", help="write collapsed-stack text here"
    )
    parser.add_argument(
        "--trace", metavar="OUT", help="write the Chrome-trace JSON here"
    )
    args = parser.parse_args(argv)
    with open(args.profile) as handle:
        document = json.load(handle)
    try:
        validate_profile(document)
    except SchemaError as error:
        print(f"{args.profile}: INVALID: {error}", file=sys.stderr)
        return 1
    print(
        f"{args.profile}: ok ({document['samples']} sweeps, "
        f"{document['thread_samples']} thread samples, "
        f"{len(document['phases'])} phases)"
    )
    if args.folded:
        from pathlib import Path

        Path(args.folded).write_text(folded_text(document))
        print(f"wrote {args.folded}")
    if args.trace:
        write_json(args.trace, chrome_trace(document))
        print(f"wrote {args.trace}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
