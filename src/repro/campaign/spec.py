"""Declarative campaign specifications (``repro.campaign.spec/1``).

A campaign spec is a JSON document describing a cross-product grid:

.. code-block:: json

    {
      "schema": "repro.campaign.spec/1",
      "name": "beta-sweep",
      "traces": [{"kind": "spec92", "name": "swm256", "instructions": 4000}],
      "caches": [{"total_bytes": 4096}, {"total_bytes": 8192}],
      "policies": ["FS", "BL"],
      "memory_cycles": [4.0, 8.0],
      "deadline_ms": 5000.0,
      "exclude": [{"cache_index": 0, "policy": "BL"}]
    }

Validation is declared on :mod:`repro.util.schema`, and the trace,
``caches``, ``policies``, ``memory_cycles`` and per-point option fields
*are* the ``/v1/sweep`` declarations (:mod:`repro.service.schemas`),
re-rooted at the campaign document's paths, so a campaign point expands
to exactly the validated shape ``/v1/simulate`` accepts.

Normalization applies every default, which makes the canonical
rendering (:func:`canonical_bytes`, the repository's standard
``dump_json`` bytes) a *content identity*: :func:`campaign_id` is the
SHA-256 of a version-prefixed canonical spec, so submitting the same
grid twice — however the JSON was formatted, whichever defaults were
spelled out — resolves to the same campaign.

Enumeration (:func:`iter_points`) is **trace-major, then cache-major**:
each trace's slice of the grid is one ``/v1/sweep`` (:func:`trace_sweep`)
enumerated by the service's own :func:`~repro.service.schemas.sweep_grid`
(cache, then policy, then β\\ :sub:`m`), so the executor can drive whole
cache columns through the fleet's sharded sweep path.  Excluded points
keep their index (they are enumerated, flagged, and never simulated) so
the index space is stable under exclusion-rule edits that only *add*
rules.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Iterator

from repro.service import schemas
from repro.service.schemas import (
    CACHES,
    GRID_AXES,
    MAX_SWEEP_POINTS,
    MEMORY_CYCLES,
    POINT_OPTIONS,
    POLICIES,
    POLICY,
    TRACE,
    caches_cover_bus,
    grid_limit,
    sweep_grid,
    sweep_point_count,
)
from repro.util.jsonout import dump_json
from repro.util.schema import (
    OMIT,
    SchemaError,
    array,
    const,
    integer,
    nullable,
    number,
    obj,
    string,
)

__all__ = [
    "CAMPAIGN_SPEC_SCHEMA",
    "MAX_CAMPAIGN_POINTS",
    "MAX_TRACES",
    "CampaignPoint",
    "SchemaError",
    "campaign_id",
    "canonical_bytes",
    "iter_points",
    "point_count",
    "point_params",
    "trace_sweep",
    "trace_sweeps",
    "validate_spec",
]

#: The campaign-spec schema tag (stamped into normalized specs).
CAMPAIGN_SPEC_SCHEMA = "repro.campaign.spec/1"

#: Version prefix folded into :func:`campaign_id`; bump with the schema.
_ID_VERSION = 1

#: Most traces one campaign may sweep.
MAX_TRACES = 16

#: Largest grid one campaign may expand to (pre-exclusion).  Matches
#: the sweep limit: a campaign is at most ``MAX_TRACES`` sweeps.
MAX_CAMPAIGN_POINTS = MAX_SWEEP_POINTS

_NAME_LENGTH = string(r"(?s).{1,64}", "must be a string of 1..64 characters")
_NAME_CHARS = string(
    r"[A-Za-z0-9_-][A-Za-z0-9._-]*",
    "may use only letters, digits, '.', '_', '-' (no leading '.')",
)


def validate_name(name: Any, path: str) -> str:
    """A campaign/baseline name: short, path-safe, non-empty."""
    return _NAME_CHARS(_NAME_LENGTH(name, path), path)


_EXCLUDE_RULE_FIELDS = {
    "trace_index": (integer(ge=0), OMIT),
    "cache_index": (integer(ge=0), OMIT),
    "policy": (POLICY, OMIT),
    "memory_cycle": (number(), OMIT),
}
_EXCLUDE_AXES = {"trace_index": "traces", "cache_index": "caches"}


def _constrains_a_key(rule: dict[str, Any], path: str) -> None:
    if not rule:
        raise SchemaError(
            f"{path}: must constrain at least one of {list(_EXCLUDE_RULE_FIELDS)}"
        )


def _rules_inside_grid(spec: dict[str, Any], path: str) -> None:
    """An exclusion index names an existing trace or cache."""
    for i, rule in enumerate(spec["exclude"]):
        for key, axis in _EXCLUDE_AXES.items():
            if key in rule:
                in_grid = integer(le=len(spec[axis]) - 1)
                in_grid(rule[key], f"{path}.exclude[{i}].{key}")


_SPEC = obj(
    {
        "schema": (const(CAMPAIGN_SPEC_SCHEMA), CAMPAIGN_SPEC_SCHEMA),
        "name": (validate_name, OMIT),
        "traces": (
            array(
                TRACE,
                min_len=1,
                max_len=MAX_TRACES,
                message=f"must be a non-empty list of at most {MAX_TRACES} "
                "trace specs",
            ),
            [{"kind": "spec92"}],
        ),
        "caches": (CACHES, [{}]),
        "policies": (POLICIES, ["FS"]),
        "memory_cycles": (MEMORY_CYCLES, [8.0]),
        # The normal form spells absent optionals as explicit nulls, so
        # null reads as absent here: validate(validate(x)) == validate(x).
        **{
            name: (check, default) if default is not None
            else (nullable(check), None)
            for name, (check, default) in POINT_OPTIONS.items()
        },
        "exclude": (
            array(
                obj(
                    _EXCLUDE_RULE_FIELDS,
                    unknown="unknown exclusion key(s) {}",
                    after=(_constrains_a_key,),
                ),
                max_len=256,
                message="must be a list of at most 256 exclusion rules",
            ),
            [],
        ),
    },
    unknown="unknown key(s) {}",
    message="spec must be a JSON object",
    after=(caches_cover_bus, grid_limit, _rules_inside_grid),
)


def validate_spec(document: Any) -> dict[str, Any]:
    """Validate and normalize one campaign spec document.

    Returns the normalized spec — every default applied, every number
    coerced to its canonical type, the ``schema`` tag stamped — which
    is the form the registry persists and :func:`campaign_id` hashes.
    Raises :class:`SchemaError` with a JSON-path message otherwise.
    """
    return _SPEC(document, "$")


def canonical_bytes(spec: dict[str, Any]) -> bytes:
    """The canonical rendering of a normalized spec (what the registry
    stores and :func:`campaign_id` hashes)."""
    return dump_json(spec).encode("utf-8")


def campaign_id(spec: dict[str, Any]) -> str:
    """Content address (hex SHA-256) of one normalized campaign spec."""
    material = f"campaign/{_ID_VERSION}|".encode("utf-8") + canonical_bytes(spec)
    return hashlib.sha256(material).hexdigest()


def point_count(spec: dict[str, Any]) -> int:
    """Grid size including excluded points (the index-space size)."""
    return len(spec["traces"]) * sweep_point_count(spec)


def _excluded(spec: dict[str, Any], point: dict[str, Any]) -> bool:
    """Whether any rule matches — a rule matches when *all* of its
    present keys equal the point's coordinates."""
    for rule in spec["exclude"]:
        if all(point[key] == value for key, value in rule.items()):
            return True
    return False


@dataclass(frozen=True)
class CampaignPoint:
    """One enumerated grid point."""

    index: int
    point: dict[str, Any]  # coordinates (what result lines carry)
    excluded: bool


def trace_sweep(spec: dict[str, Any], trace_index: int) -> dict[str, Any]:
    """One trace's slice of the grid, as a validated ``/v1/sweep``."""
    return {
        "trace": spec["traces"][trace_index],
        **{name: spec[name] for name in (*GRID_AXES, *POINT_OPTIONS)},
    }


def trace_sweeps(
    spec: dict[str, Any],
) -> Iterator[tuple[int, int, dict[str, Any]]]:
    """``(trace_index, offset, sweep)`` per trace, in order: the grid is
    trace-major, so a trace's sweep index ``i`` is campaign index
    ``offset + i``."""
    offset = 0
    for trace_index in range(len(spec["traces"])):
        sweep = trace_sweep(spec, trace_index)
        yield trace_index, offset, sweep
        offset += sweep_point_count(sweep)


def iter_points(spec: dict[str, Any]) -> Iterator[CampaignPoint]:
    """Enumerate the grid deterministically: trace-major, and within one
    trace the service's :func:`~repro.service.schemas.sweep_grid`."""
    for trace_index, offset, sweep in trace_sweeps(spec):
        for index, grid_point, _ in sweep_grid(sweep):
            point = {"trace_index": trace_index, **grid_point}
            yield CampaignPoint(offset + index, point, _excluded(spec, point))


def point_params(spec: dict[str, Any], point: dict[str, Any]) -> dict[str, Any]:
    """One point's validated ``/v1/simulate``-shaped parameter dict.

    Already-normalized (the spec validators applied every default), so
    the executor can hand it straight to the local query functions; a
    request sends its :func:`~repro.service.schemas.wire_params`.
    """
    return schemas.point_params(trace_sweep(spec, point["trace_index"]), point)
