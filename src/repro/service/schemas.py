"""Request schemas for the tradeoff-query service.

Every endpoint's parameters are declared as :mod:`repro.util.schema`
tables and checked before any domain object is built: types, ranges,
enum membership, unknown-key rejection, then the cross-field invariants
(a line is a whole number of bus transfers, geometries are powers of
two).  A malformed request costs a 400 with a JSON-path-style message,
never a stack trace from deep inside the engine.

Limits guard the simulation-backed path: ``instructions`` and matmul
``n`` are capped so a single request cannot monopolise the batch worker
(see ``docs/SERVICE.md`` for the knobs).
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from repro.core.stalling import StallPolicy
from repro.trace.spec92 import SPEC92_PROFILES
from repro.util.schema import (
    SchemaError,
    array,
    boolean,
    choice,
    const,
    integer,
    nullable,
    number,
    obj,
    union,
)

__all__ = [
    "SchemaError",
    "MAX_INSTRUCTIONS",
    "MAX_MATMUL_N",
    "MAX_SWEEP_POINTS",
    "GRID_AXES",
    "validate_execution_time",
    "validate_tradeoff",
    "validate_ranking",
    "validate_advise",
    "validate_simulate",
    "validate_sweep",
    "validate_trace_spec",
    "validate_cache_spec",
    "grid_shape",
    "point_params",
    "sub_sweep",
    "sweep_grid",
    "sweep_point_count",
    "wire_params",
]

#: Largest trace a single simulate request may ask for.
MAX_INSTRUCTIONS = 500_000

#: Largest square-matmul dimension a single simulate request may ask for.
MAX_MATMUL_N = 96

#: Largest grid one ``/v1/sweep`` request may expand to.  The stream
#: never buffers the grid, so this bounds *work*, not memory.
MAX_SWEEP_POINTS = 1_000_000

#: The analytic feature names accepted by ``/v1/tradeoff``.
FEATURES = ("doubling-bus", "write-buffers", "pipelined-memory", "partial-stalling")

POLICY = choice(policy.value for policy in StallPolicy)

# -- cross-field invariants ------------------------------------------------


def _powers_of_two(cache: dict[str, Any], path: str) -> None:
    for name in ("total_bytes", "line_size"):
        if cache[name] & (cache[name] - 1):
            raise SchemaError(f"{path}.{name}: must be a power of two")


def _line_covers_bus(cache: dict[str, Any], bus_width: int, path: str) -> None:
    """A line is a whole number of bus transfers (L/D)."""
    if cache["line_size"] % bus_width:
        raise SchemaError(
            f"{path}.line_size: must be a multiple of bus_width ({bus_width})"
        )


def _cache_covers_bus(out: dict[str, Any], path: str) -> None:
    _line_covers_bus(out["cache"], out["bus_width"], f"{path}.cache")


def caches_cover_bus(out: dict[str, Any], path: str) -> None:
    for i, cache in enumerate(out["caches"]):
        _line_covers_bus(cache, out["bus_width"], f"{path}.caches[{i}]")


def grid_limit(out: dict[str, Any], path: str) -> None:
    """A sweep (or a campaign: one sweep per trace) stays bounded."""
    points = 1
    for axis in ("traces", "caches", "policies", "memory_cycles"):
        if axis in out:
            points *= len(out[axis])
    if points > MAX_SWEEP_POINTS:
        raise SchemaError(
            f"{path}: grid expands to {points} points, more than the "
            f"{MAX_SWEEP_POINTS}-point limit"
        )


def _partial_stalling_phi(out: dict[str, Any], path: str) -> None:
    if out["feature"] == "partial-stalling" and out["stall_factor"] is None:
        raise SchemaError(
            f"{path}.stall_factor: is required for feature 'partial-stalling' "
            "(a trace-measured phi)"
        )


_PHIS = array(number(ge=0))
_PARALLEL = "must be a list parallel to betas (one measured phi per beta)"


def _phis_parallel_betas(out: dict[str, Any], path: str) -> None:
    """One measured phi per beta, checked before the phis themselves."""
    phis = out["stall_factors"]
    if phis is not None:
        if len(phis) != len(out["betas"]):
            raise SchemaError(f"{path}.stall_factors: {_PARALLEL}")
        out["stall_factors"] = _PHIS(phis, f"{path}.stall_factors")


# -- tables ----------------------------------------------------------------

_GEOMETRY = {
    "bus_width": (integer(ge=1), 4),
    "line_size": (integer(ge=1), 32),
    "memory_cycle": (number(ge=1.0), 8.0),
    "turnaround": (number(ge=1.0), 2.0),
}
_FLUSH_RATIO = (number(ge=0.0, le=1.0), 0.5)
_BASE_HIT_RATIO = number(ge=0.0, le=1.0 - 1e-9)
_PHI = (number(ge=0.0), None)

_EXECUTION_TIME = obj(
    {
        **_GEOMETRY,
        "hit_ratio": number(ge=1e-9, le=1.0),
        "flush_ratio": _FLUSH_RATIO,
        "loadstore_fraction": (number(ge=1e-9, le=1.0 - 1e-9), 0.3),
        "instructions": (number(ge=1.0), 1_000_000.0),
        "policy": (POLICY, "FS"),
        "stall_factor": _PHI,
        "write_buffers": (boolean, False),
    }
)

_TRADEOFF = obj(
    {
        **_GEOMETRY,
        "feature": choice(FEATURES),
        "base_hit_ratio": _BASE_HIT_RATIO,
        "flush_ratio": _FLUSH_RATIO,
        "stall_factor": _PHI,
    },
    after=(_partial_stalling_phi,),
)

_RANKING = obj(
    {
        **{name: spec for name, spec in _GEOMETRY.items() if name != "memory_cycle"},
        "base_hit_ratio": _BASE_HIT_RATIO,
        "flush_ratio": _FLUSH_RATIO,
        # A missing list reads as empty, which the length check rejects.
        "betas": (
            array(
                number(ge=1),
                min_len=1,
                max_len=64,
                message="must be a non-empty list of at most 64 numbers",
            ),
            [],
        ),
        "stall_factors": (nullable(array(message=_PARALLEL)), None),
    },
    after=(_phis_parallel_betas,),
)

_ADVISE = obj(
    {
        **_GEOMETRY,
        "cache_kib": (integer(ge=1, le=1 << 16), 8),
        "flush_ratio": _FLUSH_RATIO,
        "stall_factor": _PHI,
    }
)

TRACE = union(
    "kind",
    {
        "spec92": obj(
            {
                "kind": const("spec92"),
                "name": (choice(sorted(SPEC92_PROFILES)), "swm256"),
                "instructions": (integer(ge=1, le=MAX_INSTRUCTIONS), 8_000),
                "seed": (integer(ge=0), 7),
            }
        ),
        "matmul": obj(
            {
                "kind": const("matmul"),
                "n": integer(ge=1, le=MAX_MATMUL_N),
                "tile": (nullable(integer(ge=1)), None),
                "element_size": (integer(ge=1), 8),
                "alu_per_reference": (integer(ge=0), 2),
            }
        ),
    },
)

CACHE = obj(
    {
        "total_bytes": (integer(ge=1, le=1 << 24), 8192),
        "line_size": (integer(ge=1), 32),
        "associativity": (integer(ge=1), 2),
    },
    after=(_powers_of_two,),
)

#: The grid axes and per-point options of ``/v1/sweep``, shared with
#: the campaign spec (:mod:`repro.campaign.spec`).
CACHES = array(
    CACHE,
    min_len=1,
    max_len=64,
    message="must be a non-empty list of at most 64 cache specs",
)
POLICIES = array(
    POLICY, min_len=1, message="must be a non-empty list of stall policies"
)
MEMORY_CYCLES = array(
    number(ge=1), min_len=1, message="must be a non-empty list of numbers"
)
POINT_OPTIONS = {
    "bus_width": (integer(ge=1), 4),
    "write_buffer_depth": (integer(ge=0), None),
    "pipelined_q": (number(ge=1.0), None),
    "issue_rate": (number(ge=1.0), 1.0),
    "deadline_ms": (number(ge=1.0), None),
}

_SIMULATE = obj(
    {
        "trace": (TRACE, {"kind": "spec92"}),
        "cache": (CACHE, {}),
        "policy": (POLICY, "FS"),
        "memory_cycle": (number(ge=1.0), 8.0),
        **POINT_OPTIONS,
    },
    after=(_cache_covers_bus,),
)

_SWEEP = obj(
    {
        "trace": (TRACE, {"kind": "spec92"}),
        **POINT_OPTIONS,
        "caches": (CACHES, [{}]),
        "policies": (POLICIES, ["FS"]),
        # A missing axis reads as empty, which the length check rejects.
        "memory_cycles": (MEMORY_CYCLES, []),
    },
    after=(caches_cover_bus, grid_limit),
)


def validate_execution_time(params: Any) -> dict[str, Any]:
    """``/v1/execution-time``: Eq. (2) on a hit-ratio-derived workload."""
    return _EXECUTION_TIME(params, "$.params")


def validate_tradeoff(params: Any) -> dict[str, Any]:
    """``/v1/tradeoff``: one feature's traded hit ratio (Eq. 6)."""
    return _TRADEOFF(params, "$.params")


def validate_ranking(params: Any) -> dict[str, Any]:
    """``/v1/ranking``: the Table 3 / Figures 3-5 unified comparison."""
    return _RANKING(params, "$.params")


def validate_advise(params: Any) -> dict[str, Any]:
    """``/v1/advise``: the design advisor (Section 5.3 as a service)."""
    return _ADVISE(params, "$.params")


def validate_trace_spec(spec: Any, path: str = "$.params.trace") -> dict[str, Any]:
    """One trace spec (spec92 or matmul), normalized with defaults."""
    return TRACE(spec, path)


def validate_cache_spec(spec: Any, path: str = "$.params.cache") -> dict[str, Any]:
    """One cache-geometry spec, normalized with defaults."""
    return CACHE(spec, path)


def validate_simulate(params: Any) -> dict[str, Any]:
    """``/v1/simulate``: an exact per-configuration ``TimingResult``."""
    return _SIMULATE(params, "$.params")


def validate_sweep(params: Any) -> dict[str, Any]:
    """``/v1/sweep``: a (geometry x policy x beta_m) grid over one trace.

    The grid is the cross product ``caches x policies x memory_cycles``
    — exactly the empirical-grid shape the paper's methodology is swept
    with (Figures 3-5 ask the same question at many betas; the related
    split-cache studies sweep geometry).  Grid *enumeration* is
    deterministic and cache-major (see :func:`sweep_grid`), which is
    what lets the fleet router shard a sweep by geometry and re-merge
    the stream (``docs/SERVICE.md``, "Fleet mode").
    """
    return _SWEEP(params, "$.params")


#: The sweep axes, outermost first: the grid is cache-major.
GRID_AXES = ("caches", "policies", "memory_cycles")


def grid_shape(validated: dict[str, Any]) -> dict[str, int]:
    """The length of each sweep axis, as stream headers report it."""
    return {axis: len(validated[axis]) for axis in GRID_AXES}


def sweep_point_count(validated: dict[str, Any]) -> int:
    """How many points a validated sweep expands to."""
    return (
        len(validated["caches"])
        * len(validated["policies"])
        * len(validated["memory_cycles"])
    )


def point_params(validated: dict[str, Any], point: dict[str, Any]) -> dict[str, Any]:
    """One grid point's validated ``/v1/simulate`` params: the sweep's
    trace and per-point options at ``point``'s cache, policy and beta_m."""
    return {
        "trace": validated["trace"],
        "cache": point["cache"],
        "policy": point["policy"],
        "memory_cycle": point["memory_cycle"],
        **{name: validated[name] for name in POINT_OPTIONS},
    }


def wire_params(params: dict[str, Any]) -> dict[str, Any]:
    """Validated params as a request sends them: ``None`` optionals
    dropped, because the request validators reject explicit nulls."""
    return {key: value for key, value in params.items() if value is not None}


def sweep_grid(validated: dict[str, Any]):
    """Lazily expand a validated sweep into ``(index, point, params)``.

    A generator — a million-point grid is never materialized.
    Enumeration is **cache-major** (geometry outer, then policy, then
    beta_m): consecutive points share an events-store key, so they
    coalesce in one worker's micro-batch, and a geometry subset of the
    grid is itself a valid sub-grid (:func:`sub_sweep`) — the property
    the fleet router's sharding and the campaign planner rely on.
    """
    index = 0
    for cache_index, cache in enumerate(validated["caches"]):
        for policy in validated["policies"]:
            for beta in validated["memory_cycles"]:
                point = {
                    "cache_index": cache_index,
                    "cache": cache,
                    "policy": policy,
                    "memory_cycle": beta,
                }
                yield index, point, point_params(validated, point)
                index += 1


def sub_sweep(
    validated: dict[str, Any], cache_indices: list[int]
) -> tuple[dict[str, Any], Callable[[int], tuple[int, int]]]:
    """The sweep over some of a grid's cache columns, and its index map.

    Returns ``(sub, to_global)``: ``sub`` is a validated sweep with the
    grid's trace, policies, beta_m values and options but only the
    caches at ``cache_indices``, in that order; ``to_global(local)``
    maps the index of a point of ``sub``'s :func:`sweep_grid` to the
    ``(index, cache_index)`` of the same point in ``validated``'s.
    """
    per = len(validated["policies"]) * len(validated["memory_cycles"])

    def to_global(local: int) -> tuple[int, int]:
        column, rem = divmod(local, per)
        cache_index = cache_indices[column]
        return cache_index * per + rem, cache_index

    sub = {
        "trace": validated["trace"],
        "caches": [validated["caches"][index] for index in cache_indices],
        "policies": validated["policies"],
        "memory_cycles": validated["memory_cycles"],
        **{name: validated[name] for name in POINT_OPTIONS},
    }
    return sub, to_global
