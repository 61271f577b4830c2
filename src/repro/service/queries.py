"""Query implementations behind the service endpoints.

Pure synchronous functions from *validated* parameter dicts (see
:mod:`repro.service.schemas`) to JSON-ready result dicts.  The analytic
queries (Eq. 2 execution time, Eq. 6 tradeoffs, the unified ranking,
the design advisor) are microseconds of float arithmetic and run inline
on the event loop; the simulation-backed query is split so the
micro-batch scheduler can share its expensive half:

* :func:`trace_fingerprint_of` / :func:`events_key_of` — the
  (trace, geometry) identity a batch group coalesces on, and
  :func:`result_key_of` — one point's result identity;
* :func:`resolve_events` — phase 1: one lookup of the events store
  (memo, disk, or a cold extraction from the trace's reference arrays)
  per group;
* :func:`simulate_from_events` — phase 2: the per-request replay, plus
  the step-simulator oracle for the configurations replay does not
  cover (multi-issue; see ``docs/ENGINE.md``).

Simulation results are byte-identical to a direct
:func:`repro.cpu.replay.simulate` call for the same configuration: the
same engine runs underneath, and :func:`timing_result_dict` is the one
serialization both the service tests and the CLI comparisons use.
"""

from __future__ import annotations

import asyncio
import math
from typing import Any

from repro.analysis.design_advisor import DesignBrief, recommend
from repro.analysis.short_levy import short_levy_curve
from repro.cache.cache import CacheConfig
from repro.cache import events_store
from repro.cache.events import EventStream
from repro.core.execution import execution_breakdown
from repro.core.features import ArchFeature, feature_miss_ratio
from repro.core.params import SystemConfig, workload_from_hit_ratio
from repro.core.ranking import unified_comparison
from repro.core.stalling import StallPolicy
from repro.core.tradeoff import TradeoffResult, hit_ratio_traded
from repro.cpu.processor import TimingResult
from repro.cpu.replay import simulate, unsupported_reason
from repro.memory.mainmem import MainMemory
from repro.memory.pipelined import PipelinedMemory
from repro.service.result_cache import result_key, simulate_key_material
from repro.trace.recipe import trace_recipe

_FEATURES = {
    "doubling-bus": ArchFeature.DOUBLING_BUS,
    "write-buffers": ArchFeature.WRITE_BUFFERS,
    "pipelined-memory": ArchFeature.PIPELINED_MEMORY,
    "partial-stalling": ArchFeature.PARTIAL_STALLING,
}


class InvalidQuery(ValueError):
    """Parameters passed structural validation but fail domain rules.

    (For example a line size the cache geometry cannot express.)  The
    server maps this to the same 400 family as schema errors.
    """


def point_error(error: BaseException) -> dict[str, Any]:
    """One failed point as its ``{code, message, status}`` document.

    The shape every sweep error line, campaign state entry and
    ``results.jsonl`` error record carries, whichever path failed.  An
    error that already names an HTTP ``status`` and ``code`` keeps them:
    a worker's forwarded answer, a client-side ``ServiceError``, a full
    queue.
    """
    status = getattr(error, "status", None)
    code = getattr(error, "code", None)
    if not (isinstance(status, int) and isinstance(code, str)):
        if isinstance(error, asyncio.TimeoutError):
            status, code = 504, "deadline_exceeded"
        elif isinstance(error, InvalidQuery):
            status, code = 400, "invalid_params"
        else:
            status, code = 500, "internal_error"
    return {
        "code": code,
        "message": str(error) or type(error).__name__,
        "status": status,
    }


def _first_non_finite(value: Any) -> tuple[str, float] | None:
    """(path, value) of the first non-finite float in ``value``, or None."""
    if isinstance(value, float):
        return None if math.isfinite(value) else ("", value)
    if isinstance(value, dict):
        items: Any = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return None
    for key, item in items:
        found = _first_non_finite(item)
        if found is not None:
            step = f"[{key}]" if isinstance(key, int) else f".{key}"
            return step + found[0], found[1]
    return None


def _finite(result: dict[str, Any]) -> dict[str, Any]:
    """``result`` itself, or :class:`InvalidQuery` naming its first
    non-finite number.

    Finite inputs can still overflow the model (a ``memory_cycle`` of
    ``1e308`` makes every stall infinite), and JSON has no spelling for
    the outcome; checked here, before a result reaches a cache, an
    artifact or a sweep line.
    """
    found = _first_non_finite(result)
    if found is not None:
        path, value = found
        raise InvalidQuery(f"non-finite result: result{path} is {value!r}")
    return result


def _system_config(params: dict[str, Any]) -> SystemConfig:
    try:
        return SystemConfig(
            bus_width=params["bus_width"],
            line_size=params["line_size"],
            memory_cycle=params["memory_cycle"],
            pipeline_turnaround=params["turnaround"],
        )
    except ValueError as error:
        raise InvalidQuery(str(error)) from None


def execution_time_query(params: dict[str, Any]) -> dict[str, Any]:
    """Eq. (2) terms for a hit-ratio-characterised workload."""
    config = _system_config(params)
    try:
        workload = workload_from_hit_ratio(
            params["hit_ratio"],
            config,
            instructions=params["instructions"],
            loadstore_fraction=params["loadstore_fraction"],
            flush_ratio=params["flush_ratio"],
        )
        breakdown = execution_breakdown(
            workload,
            config,
            stall_factor=params["stall_factor"],
            policy=StallPolicy(params["policy"]),
            write_buffers=params["write_buffers"],
        )
    except ValueError as error:
        raise InvalidQuery(str(error)) from None
    return _finite({
        "base_cycles": breakdown.base_cycles,
        "read_miss_stall_cycles": breakdown.read_miss_stall_cycles,
        "flush_cycles": breakdown.flush_cycles,
        "write_around_cycles": breakdown.write_around_cycles,
        "instruction_fetch_cycles": breakdown.instruction_fetch_cycles,
        "total_cycles": breakdown.total,
        "cpi": breakdown.total / workload.instructions,
    })


def tradeoff_query(params: dict[str, Any]) -> dict[str, Any]:
    """Eq. (6): the hit ratio one feature is worth at this point."""
    config = _system_config(params)
    feature = _FEATURES[params["feature"]]
    try:
        r = feature_miss_ratio(
            feature,
            config,
            flush_ratio=params["flush_ratio"],
            measured_stall_factor=params["stall_factor"],
        )
        result = TradeoffResult(
            miss_ratio_of_misses=r, base_hit_ratio=params["base_hit_ratio"]
        )
        delta = result.hit_ratio_delta
    except ValueError as error:
        raise InvalidQuery(str(error)) from None
    return _finite({
        "feature": params["feature"],
        "miss_ratio_of_misses": r,
        "hit_ratio_delta": delta,
        "feature_hit_ratio": result.feature_hit_ratio,
        "is_physical": result.is_physical,
    })


def ranking_query(params: dict[str, Any]) -> dict[str, Any]:
    """The Figures 3-5 unified comparison over a ``beta_m`` grid."""
    betas = params["betas"]
    config = SystemConfig(
        bus_width=params["bus_width"],
        line_size=params["line_size"],
        memory_cycle=betas[0],
        pipeline_turnaround=params["turnaround"],
    )
    stall_factors = params["stall_factors"]
    phi_map = (
        dict(zip(betas, stall_factors)) if stall_factors is not None else None
    )
    try:
        comparison = unified_comparison(
            config,
            params["base_hit_ratio"],
            betas,
            flush_ratio=params["flush_ratio"],
            measured_stall_factors=phi_map,
        )
    except ValueError as error:
        raise InvalidQuery(str(error)) from None
    curves = {
        feature.value: list(sweep.hit_ratio_traded)
        for feature, sweep in comparison.sweeps.items()
    }
    rankings = {
        f"{beta:g}": [f.value for f in comparison.ranking_at(beta)]
        for beta in betas
    }
    crossover = comparison.pipelined_crossover_vs(ArchFeature.DOUBLING_BUS)
    return _finite({
        "betas": list(betas),
        "hit_ratio_traded": curves,
        "ranking_at": rankings,
        "pipelined_vs_doubling_crossover": crossover,
    })


def advise_query(params: dict[str, Any]) -> dict[str, Any]:
    """Section 5.3 as a service: priced, ranked feature recommendations."""
    config = _system_config(params)
    try:
        brief = DesignBrief(
            config=config,
            cache_bytes=params["cache_kib"] * 1024,
            hit_ratio_curve=short_levy_curve(),
            flush_ratio=params["flush_ratio"],
            measured_stall_factor=params["stall_factor"],
        )
        recommendations = recommend(brief)
    except ValueError as error:
        raise InvalidQuery(str(error)) from None
    return _finite({
        "base_hit_ratio": brief.base_hit_ratio,
        "recommendations": [
            {
                "feature": rec.feature.value,
                "hit_ratio_value": rec.hit_ratio_value,
                "equivalent_cache_bytes": rec.equivalent_cache_bytes,
                "pin_cost": rec.pin_cost,
                "area_cost_rbe": rec.area_cost_rbe,
                "note": rec.note,
                "summary": rec.summary,
            }
            for rec in recommendations
        ],
    })


# -- the simulation-backed query ----------------------------------------


def trace_fingerprint_of(trace: dict[str, Any]) -> str:
    """Content identity of the request's trace (spec92 or matmul)."""
    return trace_recipe(trace).fingerprint


def cache_config_of(params: dict[str, Any]) -> CacheConfig:
    """The request's cache geometry as a domain object."""
    spec = params["cache"]
    try:
        return CacheConfig(
            total_bytes=spec["total_bytes"],
            line_size=spec["line_size"],
            associativity=spec["associativity"],
        )
    except ValueError as error:
        raise InvalidQuery(str(error)) from None


def events_key_of(params: dict[str, Any]) -> str:
    """The (trace, geometry) identity a batch group coalesces on.

    The same content address the on-disk events store uses, so one
    group == one store lookup == at most one extraction.
    """
    return events_store.entry_key(
        trace_fingerprint_of(params["trace"]), cache_config_of(params)
    )


def result_key_of(params: dict[str, Any]) -> str:
    """The content address of one simulate point's result.

    The key the service's result caches and a campaign's artifacts
    share, which is what makes every path to a point interchangeable
    byte for byte.
    """
    return result_key(
        simulate_key_material(
            trace_fingerprint_of(params["trace"]),
            cache_config_of(params),
            params["policy"],
            params["memory_cycle"],
            params["bus_width"],
            params["write_buffer_depth"],
            params["pipelined_q"],
            params["issue_rate"],
        )
    )


def trace_key_of(params: dict[str, Any]) -> str:
    """The trace-alone identity phase-1 *profile* work coalesces on.

    Service cache geometries are always LRU/write-back/write-allocate
    (:func:`cache_config_of` builds plain :class:`CacheConfig`\\ s), so
    every simulate request is reuse-engine eligible and its expensive
    phase-1 half — trace generation plus the reuse-distance profiling
    pass — depends on the trace only.  The batch scheduler groups on
    this key to run geometry fans over one trace back-to-back (see
    :mod:`repro.service.batching`).
    """
    return trace_fingerprint_of(params["trace"])


def resolve_events(params: dict[str, Any]) -> EventStream:
    """Phase 1 for one batch group: the event stream from the events
    store's memo or disk, or derived from the trace's reference arrays
    (the experiments' path, :func:`repro.cache.events_store.trace_events`)."""
    return events_store.trace_events(params["trace"], cache_config_of(params))


def memory_of(params: dict[str, Any]) -> MainMemory:
    """The request's memory model (plain or pipelined)."""
    if params["pipelined_q"] is not None:
        try:
            return PipelinedMemory(
                params["memory_cycle"], params["bus_width"], params["pipelined_q"]
            )
        except ValueError as error:
            raise InvalidQuery(str(error)) from None
    return MainMemory(params["memory_cycle"], params["bus_width"])


def engine_path_of(params: dict[str, Any]) -> str:
    """Which engine will serve this request: ``replay`` or ``step``."""
    reason = unsupported_reason(
        cache_config_of(params),
        memory_of(params),
        StallPolicy(params["policy"]),
        params["write_buffer_depth"],
        params["issue_rate"],
    )
    return "replay" if reason is None else "step"


def timing_result_dict(result: TimingResult, engine: str) -> dict[str, Any]:
    """The one JSON rendering of a :class:`TimingResult` (see tests)."""
    return {
        "instructions": result.instructions,
        "cycles": result.cycles,
        "cpi": result.cpi,
        "read_miss_stall_cycles": result.read_miss_stall_cycles,
        "flush_stall_cycles": result.flush_stall_cycles,
        "write_stall_cycles": result.write_stall_cycles,
        "line_fills": result.line_fills,
        "memory_cycle": result.memory_cycle,
        "stall_factor": result.stall_factor,
        "engine": engine,
    }


def simulate_from_events(
    params: dict[str, Any], events: EventStream
) -> dict[str, Any]:
    """Phase 2 for one request: exact cycle accounting over the stream.

    Replay-covered configurations never touch the instruction stream;
    the step-simulator fallback (multi-issue only, within the service's
    schema) re-materializes the trace, which is why the events memo
    keys on (trace, geometry) rather than the full request.
    """
    memory = memory_of(params)
    policy = StallPolicy(params["policy"])
    engine = engine_path_of(params)
    trace = None
    if engine == "step":
        trace = trace_recipe(params["trace"]).instructions()
    try:
        result = simulate(
            trace if trace is not None else (),
            events.config,
            memory,
            policy=policy,
            write_buffer_depth=params["write_buffer_depth"],
            issue_rate=params["issue_rate"],
            events=events if engine == "replay" else None,
        )
    except ValueError as error:
        raise InvalidQuery(str(error)) from None
    return _finite(timing_result_dict(result, engine))
