"""Shared stall-factor measurement for the simulation-backed figures.

Figures 1 and 3-5 all need trace-measured stalling factors.  This module
describes the six SPEC92 stand-in traces to phase 1 (the two-phase
engine's functional pass, one per (trace, geometry), memoized in process
and on disk by :func:`repro.cache.events_store.get_or_extract`) and
times each trace's whole ``beta_m`` grid in one phase-2 call (the
βm-grid kernel, :func:`repro.cpu.replay.replay_fs_sweep`).

Observability: the functional passes run under spans, and
per-(trace, geometry) cache counters are recorded from the event
streams once per experiment.  :func:`clear_caches` empties both
phase-1 memos and the record of counted streams — the runner
calls it before every experiment, so no experiment's streams stay
resident through the next and per-experiment counts are independent of
what ran earlier in the process (the basis of the ``--jobs N`` byte-identical-aggregate
guarantee; see ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

from repro.cache import events_store, reuse_store
from repro.cache.cache import CacheConfig
from repro.cache.events import EventStream
from repro.core.stalling import StallPolicy
from repro.cpu.replay import replay_fs_sweep
from repro.obs import metrics, tracing
from repro.trace.spec92 import SPEC92_PROFILES

#: Instruction counts for full and quick runs.  The paper used 50 M per
#: program; the synthetic streams reach steady state much sooner.
FULL_INSTRUCTIONS = 60_000
QUICK_INSTRUCTIONS = 8_000

#: The seed behind every memoized trace build (manifests record it).
DEFAULT_SEED = 7

#: ``(n_instructions, cache_bytes, line_size, associativity, seed)`` of
#: the stream sets whose ``cache.*`` counters this experiment recorded.
_counted: set[tuple[int, int, int, int, int]] = set()


def _record_stream_counters(
    streams: dict[str, EventStream], config: CacheConfig
) -> None:
    """Per-(trace, geometry) functional-pass counters."""
    label = f"{config.total_bytes}B/L{config.line_size}/A{config.associativity}"
    for name, events in streams.items():
        stats = events.stats
        metrics.inc("cache.hits", stats.hits, trace=name, geometry=label)
        metrics.inc("cache.misses", stats.misses, trace=name, geometry=label)
        metrics.inc(
            "cache.dirty_victims",
            int(events.dirty_victim.sum()),
            trace=name,
            geometry=label,
        )
        metrics.inc(
            "cache.accesses", stats.accesses, trace=name, geometry=label
        )


def spec92_event_streams(
    n_instructions: int,
    cache_bytes: int,
    line_size: int,
    associativity: int,
    seed: int = DEFAULT_SEED,
) -> dict[str, EventStream]:
    """Phase-1 event streams for all six traces, keyed on geometry.

    Every (policy, ``beta_m``, write-buffer, memory-model) replay over
    the same (trace, geometry) pair shares one functional pass; the
    first request of a geometry in an experiment records its ``cache.*``
    counters.
    """
    config = CacheConfig(
        total_bytes=cache_bytes, line_size=line_size, associativity=associativity
    )
    streams = {
        name: spec92_events(name, n_instructions, config, seed)
        for name in SPEC92_PROFILES
    }
    key = (n_instructions, cache_bytes, line_size, associativity, seed)
    if metrics.metrics_enabled() and key not in _counted:
        _counted.add(key)
        _record_stream_counters(streams, config)
    return streams


def spec92_events(
    name: str,
    n_instructions: int,
    config: CacheConfig,
    seed: int = DEFAULT_SEED,
) -> EventStream:
    """Phase-1 event stream for a single trace and arbitrary geometry.

    The entry point for experiments that sweep something *other* than
    the phi grid (write-buffer depths, DRAM models, MSHR counts): one
    functional pass per ``(trace, geometry)``, shared in-process by the
    events store's memo and across processes by its disk entries.
    """
    with tracing.span(
        "phase1.extract",
        trace=name,
        cache_bytes=config.total_bytes,
        line_size=config.line_size,
        associativity=config.associativity,
    ):
        return events_store.trace_events(
            {
                "kind": "spec92",
                "name": name,
                "instructions": n_instructions,
                "seed": seed,
            },
            config,
        )


def measured_phi_percentages(
    policy: StallPolicy,
    line_size: int,
    cache_bytes: int,
    associativity: int,
    betas: tuple[float, ...],
    bus_width: int,
    n_instructions: int,
) -> tuple[float, ...]:
    """Average ``phi`` (% of L/D) across the six traces per ``beta_m``.

    One :func:`replay_fs_sweep` per trace times the whole grid (it picks
    the βm-grid kernel or the per-point loop from the βm values); the
    points are then averaged beta by beta in trace order, and the φ
    histogram observes them in that order.  A configuration the replay
    engine does not cover raises ``ValueError``, as
    :func:`repro.cpu.replay.replay` does.
    """
    streams = spec92_event_streams(
        n_instructions, cache_bytes, line_size, associativity
    )
    bus_cycles_per_line = line_size // bus_width
    row = []
    with tracing.span(
        "phi.measure",
        policy=policy.value,
        n_betas=len(betas),
        line_size=line_size,
    ):
        # Each sweep records its points (``record_timing``) trace by
        # trace; with integer βm the Eq. 2 terms are integer-valued
        # doubles, so the counters sum to the values a βm-by-βm loop
        # gives.
        sweeps = [
            replay_fs_sweep(events, betas, bus_width, policy)
            for events in streams.values()
        ]
        for results in zip(*sweeps):
            total = 0.0
            for result in results:
                pct = result.stall_percentage(bus_cycles_per_line)
                metrics.observe(
                    "phi.stall_percentage", pct, policy=policy.value
                )
                total += pct
            row.append(total / len(streams))
    return tuple(row)


def clear_caches() -> None:
    """Reset the in-process phase-1 state: the event stream and reuse
    profile memos, and the record of counted streams.

    The runner calls this before every experiment, so each experiment's
    counters describe a cold start — independent of job count and of
    whatever ran earlier in the process.  The on-disk
    stores are *not* touched: their contents are deterministic and their
    use is counter-free, so warm entries cannot perturb either results
    or metrics.
    """
    _counted.clear()
    events_store.clear_memory()
    reuse_store.clear_memory()


def floor_phi_to_table2(phi: float) -> float:
    """Clamp a measured stalling factor to Table 2's lower bound.

    Every blocking policy except NB satisfies ``phi >= 1``: a missing
    reference always pays at least one ``beta_m`` — the memory cycle
    that delivers the critical (requested) word — before the processor
    can resume, no matter how perfectly the rest of the fill overlaps
    execution.  Short quick-mode traces can measure ``phi`` fractions
    below 1 through cold-start noise (misses whose windows the trace
    truncates); projecting those into the analytic sweep would claim a
    partially-stalling cache beats an ideal non-blocking one.  The
    floor keeps projections inside Table 2's admissible interval
    ``1 <= phi <= L/D``.
    """
    return max(1.0, phi)


def measured_phi_map(
    policy: StallPolicy,
    line_size: int,
    betas: tuple[float, ...],
    quick: bool,
    cache_bytes: int = 8192,
    associativity: int = 2,
    bus_width: int = 4,
) -> dict[float, float]:
    """``beta_m -> phi`` (absolute stalling factor) for the ranking sweep."""
    n_instructions = QUICK_INSTRUCTIONS if quick else FULL_INSTRUCTIONS
    percentages = measured_phi_percentages(
        policy,
        line_size,
        cache_bytes,
        associativity,
        betas,
        bus_width,
        n_instructions,
    )
    full = line_size / bus_width
    return {
        beta: floor_phi_to_table2(pct / 100.0 * full)
        for beta, pct in zip(betas, percentages)
    }
