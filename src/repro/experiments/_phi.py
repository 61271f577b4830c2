"""Shared stall-factor measurement for the simulation-backed figures.

Figures 1 and 3-5 all need trace-measured stalling factors.  This module
builds the six SPEC92 stand-in traces once per (length, seed), runs the
two-phase engine's functional pass (phase 1) once per (trace, geometry),
times each trace's whole ``beta_m`` grid in one phase-2 call (the
βm-grid kernel, :func:`repro.cpu.replay.replay_fs_sweep`), and caches
measured ``phi`` per (policy, geometry, beta) point so that running
several figures in one process does not re-simulate identical sweeps.
Phase-1 passes can optionally fan out across a process pool (the
runner's ``--jobs`` flag wires this up).

Observability: every memoization point is wrapped with hit/miss
counters (``phi.*_memo.{hit,miss}``), the trace build and functional
passes run under spans, and per-(trace, geometry) cache counters are
recorded from the extracted event streams.  :func:`clear_caches` resets
all three memo caches — the runner calls it per experiment while
metrics collection is on, so per-experiment counts are independent of
what ran earlier in the process (the basis of the ``--jobs N``
byte-identical-aggregate guarantee; see ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

from functools import lru_cache

from repro.cache.cache import CacheConfig
from repro.cache.events import EventStream
from repro.cache import events_store, reuse_store
from repro.core.stalling import StallPolicy
from repro.cpu.replay import replay_fs_sweep, supports_replay
from repro.cpu.stall_measure import average_stall_percentages
from repro.memory.mainmem import MainMemory
from repro.obs import metrics, tracing
from repro.trace.record import Instruction
from repro.trace.spec92 import SPEC92_PROFILES, trace_fingerprint

#: Instruction counts for full and quick runs.  The paper used 50 M per
#: program; the synthetic streams reach steady state much sooner.
FULL_INSTRUCTIONS = 60_000
QUICK_INSTRUCTIONS = 8_000

#: The seed behind every memoized trace build (manifests record it).
DEFAULT_SEED = 7

#: Process count for phase-1 extraction; 1 = in-process.  Set via
#: :func:`set_phase1_jobs` (the experiment runner's ``--jobs`` flag).
_PHASE1_JOBS = 1


def set_phase1_jobs(jobs: int) -> None:
    """Let phase-1 functional passes fan out over ``jobs`` processes.

    Extraction is deterministic, so results are identical for any job
    count; only wall-clock changes.
    """
    global _PHASE1_JOBS
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    _PHASE1_JOBS = jobs


def _memo_counter(name: str, cached, before_hits: int) -> None:
    """Record whether the just-made call hit or missed an lru_cache."""
    hit = cached.cache_info().hits > before_hits
    metrics.inc(f"phi.{name}_memo.{'hit' if hit else 'miss'}")


@lru_cache(maxsize=8)
def _spec92_traces_cached(
    n_instructions: int, seed: int
) -> dict[str, tuple[Instruction, ...]]:
    with tracing.span(
        "phase1.traces", n_instructions=n_instructions, seed=seed
    ):
        return {
            name: tuple(profile.trace(n_instructions, seed=seed))
            for name, profile in SPEC92_PROFILES.items()
        }


def spec92_traces(
    n_instructions: int, seed: int = DEFAULT_SEED
) -> dict[str, tuple[Instruction, ...]]:
    """The six stand-in traces, materialized once per (length, seed).

    No memo hit/miss counter here: with the on-disk event-stream store
    (:mod:`repro.cache.events_store`) warm runs never materialize the
    traces at all, and a counter would make cold and warm metrics
    snapshots differ.
    """
    return _spec92_traces_cached(n_instructions, seed)


def _spec92_profile(name: str, n_instructions: int, seed: int):
    """Reuse profile for one stand-in, built from the generator's arrays.

    The synthetic builder draws the reference positions/addresses as
    numpy arrays before it ever materializes Instruction objects, so the
    reuse engine's cold path can take them directly —
    :meth:`~repro.trace.spec92.WorkloadProfile.profile_arrays` pins this
    byte-identical to profiling the materialized trace.
    """
    from repro.cache.reuse import ReuseProfile

    return ReuseProfile(
        *SPEC92_PROFILES[name].profile_arrays(n_instructions, seed=seed)
    )


def _extract_one(
    name: str, n_instructions: int, seed: int, geometry: tuple[int, int, int]
) -> EventStream:
    """Worker: materialize one trace and run its functional pass.

    Top-level so it pickles for :class:`ProcessPoolExecutor`; workers
    regenerate the trace from its (name, length, seed) key instead of
    shipping 60k instruction objects over the pipe.  The on-disk store
    is consulted first (workers inherit the opt-out environment).
    """
    cache_bytes, line_size, associativity = geometry
    config = CacheConfig(
        total_bytes=cache_bytes,
        line_size=line_size,
        associativity=associativity,
    )
    return events_store.get_or_extract(
        trace_fingerprint(name, n_instructions, seed),
        config,
        lambda: SPEC92_PROFILES[name].trace(n_instructions, seed=seed),
        profile_factory=lambda: _spec92_profile(name, n_instructions, seed),
    )


def _record_stream_counters(
    streams: dict[str, EventStream], geometry: tuple[int, int, int]
) -> None:
    """Per-(trace, geometry) functional-pass counters.

    Recorded in the parent from the returned streams so the pool path
    (whose workers are transient processes) is covered identically to
    the in-process path.
    """
    if not metrics.metrics_enabled():
        return
    cache_bytes, line_size, associativity = geometry
    label = f"{cache_bytes}B/L{line_size}/A{associativity}"
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


@lru_cache(maxsize=16)
def _spec92_event_streams_cached(
    n_instructions: int,
    cache_bytes: int,
    line_size: int,
    associativity: int,
    seed: int,
) -> dict[str, EventStream]:
    geometry = (cache_bytes, line_size, associativity)
    config = CacheConfig(
        total_bytes=cache_bytes, line_size=line_size, associativity=associativity
    )
    # Warm path first: disk hits are cheap and need no trace build, so
    # resolve them in-process before considering the worker pool.
    streams: dict[str, EventStream] = {}
    missing = []
    for name in SPEC92_PROFILES:
        cached = events_store.load(
            trace_fingerprint(name, n_instructions, seed), config
        )
        if cached is not None:
            streams[name] = cached
        else:
            missing.append(name)
    if missing and _PHASE1_JOBS > 1:
        from concurrent.futures import ProcessPoolExecutor

        with tracing.span(
            "phase1.extract_pool", jobs=_PHASE1_JOBS, line_size=line_size
        ):
            with ProcessPoolExecutor(
                max_workers=min(_PHASE1_JOBS, 6)
            ) as pool:
                futures = {
                    name: pool.submit(
                        _extract_one, name, n_instructions, seed, geometry
                    )
                    for name in missing
                }
                for name, future in futures.items():
                    streams[name] = future.result()
    elif missing:
        for name in missing:
            with tracing.span(
                "phase1.extract",
                trace=name,
                cache_bytes=cache_bytes,
                line_size=line_size,
                associativity=associativity,
            ):
                streams[name] = events_store.get_or_extract(
                    trace_fingerprint(name, n_instructions, seed),
                    config,
                    # The bulk memo keeps step-fallback extractions at
                    # the same length to one generation pass; the reuse
                    # path never materializes the trace at all.
                    lambda name=name: spec92_traces(n_instructions, seed)[
                        name
                    ],
                    profile_factory=lambda name=name: _spec92_profile(
                        name, n_instructions, seed
                    ),
                )
    # Deterministic order regardless of which entries were disk hits.
    streams = {name: streams[name] for name in SPEC92_PROFILES}
    _record_stream_counters(streams, geometry)
    return streams


def spec92_event_streams(
    n_instructions: int,
    cache_bytes: int,
    line_size: int,
    associativity: int,
    seed: int = DEFAULT_SEED,
) -> dict[str, EventStream]:
    """Phase-1 event streams for all six traces, keyed on geometry.

    This is the two-phase engine's memoization point: every (policy,
    ``beta_m``, write-buffer, memory-model) replay over the same
    (trace, geometry) pair shares one functional pass.
    """
    before = _spec92_event_streams_cached.cache_info().hits
    result = _spec92_event_streams_cached(
        n_instructions, cache_bytes, line_size, associativity, seed
    )
    _memo_counter("events", _spec92_event_streams_cached, before)
    return result


@lru_cache(maxsize=64)
def _spec92_stream_cached(
    name: str, n_instructions: int, seed: int, config: CacheConfig
) -> EventStream:
    with tracing.span(
        "phase1.extract_one",
        trace=name,
        cache_bytes=config.total_bytes,
        line_size=config.line_size,
        associativity=config.associativity,
    ):
        return events_store.get_or_extract(
            trace_fingerprint(name, n_instructions, seed),
            config,
            # The bulk per-(length, seed) memo: every caller of this
            # entry point sweeps all six programs, so materializing them
            # together lets experiments at the same length share one
            # generation pass.
            lambda: spec92_traces(n_instructions, seed)[name],
            profile_factory=lambda: _spec92_profile(
                name, n_instructions, seed
            ),
        )


def spec92_events(
    name: str,
    n_instructions: int,
    config: CacheConfig,
    seed: int = DEFAULT_SEED,
) -> EventStream:
    """Phase-1 event stream for a single trace and arbitrary geometry.

    The entry point for experiments that sweep something *other* than
    the phi grid (write-buffer depths, DRAM models, MSHR counts): one
    functional pass per ``(trace, geometry)``, shared in-process via
    the memo and across processes via the on-disk store.
    """
    before = _spec92_stream_cached.cache_info().hits
    result = _spec92_stream_cached(name, n_instructions, seed, config)
    _memo_counter("stream", _spec92_stream_cached, before)
    return result


#: Per-*point* phi memo: ``(policy, geometry, beta, bus_width, length)
#: -> percentage``.  Memoizing whole beta grids (the previous design)
#: never hit — different figures sweep different grids, so overlapping
#: points such as ``beta_m = 8`` were recomputed every time and the
#: ``phi.phi_memo.hit`` counter stayed at zero (the BENCH_engine.json
#: anomaly).  Points are batch-computed with the identical float
#: operations in the identical order regardless of which grid requests
#: them, so results are independent of request history.
_phi_point_memo: dict[tuple, float] = {}


def _phi_point_key(
    policy: StallPolicy,
    line_size: int,
    cache_bytes: int,
    associativity: int,
    beta: float,
    bus_width: int,
    n_instructions: int,
) -> tuple:
    return (
        policy,
        line_size,
        cache_bytes,
        associativity,
        beta,
        bus_width,
        n_instructions,
    )


def _measure_phi_points(
    policy: StallPolicy,
    line_size: int,
    cache_bytes: int,
    associativity: int,
    betas: tuple[float, ...],
    bus_width: int,
    n_instructions: int,
) -> list[float]:
    """Measure phi for ``betas`` (no memo): per-beta averages over the
    six traces.

    One :func:`replay_fs_sweep` per trace times the whole grid (it
    picks the βm-grid kernel or the per-point loop from the βm values);
    the points are then averaged beta by beta in trace order, and the φ
    histogram observes them in that order.
    """
    config = CacheConfig(
        total_bytes=cache_bytes, line_size=line_size, associativity=associativity
    )
    probe = MainMemory(betas[0] if betas else 1.0, bus_width)
    if supports_replay(config, probe, policy):
        # Two-phase engine: one functional pass per trace (shared with
        # every other policy/beta on this geometry), then the timing
        # replays over the compact event streams.
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
            # doubles, so the counters sum to the values a βm-by-βm
            # loop gives.
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
        return row
    # Oracle fallback: kept for configurations a future caller might
    # request outside replay coverage; no registry experiment needs it.
    traces = spec92_traces(n_instructions)
    with tracing.span(
        "phi.measure_fallback", policy=policy.value, n_betas=len(betas)
    ):
        data = average_stall_percentages(
            traces, config, (policy,), betas, bus_width
        )
    return list(data[policy])


def measured_phi_percentages(
    policy: StallPolicy,
    line_size: int,
    cache_bytes: int,
    associativity: int,
    betas: tuple[float, ...],
    bus_width: int,
    n_instructions: int,
) -> tuple[float, ...]:
    """Average ``phi`` (% of L/D) across the six traces per ``beta_m``."""
    keys = {
        beta: _phi_point_key(
            policy,
            line_size,
            cache_bytes,
            associativity,
            beta,
            bus_width,
            n_instructions,
        )
        for beta in betas
    }
    missing = tuple(
        beta for beta in betas if keys[beta] not in _phi_point_memo
    )
    hits = len(betas) - len(missing)
    if hits:
        metrics.inc("phi.phi_memo.hit", hits)
    if missing:
        metrics.inc("phi.phi_memo.miss", len(missing))
        values = _measure_phi_points(
            policy,
            line_size,
            cache_bytes,
            associativity,
            missing,
            bus_width,
            n_instructions,
        )
        for beta, value in zip(missing, values):
            _phi_point_memo[keys[beta]] = value
    return tuple(_phi_point_memo[keys[beta]] for beta in betas)


def clear_caches() -> None:
    """Reset every memo cache (traces, event streams, reuse profiles,
    phi points).

    The runner calls this per experiment while metrics collection is on
    so each experiment's counters describe a cold start — independent of
    job count and of whatever ran earlier in the process.  The on-disk
    event-stream store is *not* touched: its contents are deterministic
    and its use is counter-free, so warm entries cannot perturb either
    results or metrics.
    """
    _spec92_traces_cached.cache_clear()
    _spec92_event_streams_cached.cache_clear()
    _spec92_stream_cached.cache_clear()
    _phi_point_memo.clear()
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
