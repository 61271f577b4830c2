"""Property: the grid has one layout, one point key and one wire form.

For any small valid campaign spec, each trace's slice of the campaign
enumeration is the service's :func:`~repro.service.schemas.sweep_grid`
shifted by the trace's offset; the campaign's result key of every point
is the one the service computes for that point's ``/v1/simulate``
request; every point's wire form validates back to its params; and every
cache-column subset's sub-sweep is a valid ``/v1/sweep`` whose local
indices map one-to-one onto those columns' global indices.
"""

import itertools
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign.registry import Campaign
from repro.campaign.spec import iter_points, point_params, validate_spec
from repro.core.stalling import StallPolicy
from repro.service import queries
from repro.service.schemas import (
    GRID_AXES,
    POINT_OPTIONS,
    sub_sweep,
    sweep_grid,
    validate_simulate,
    validate_sweep,
    wire_params,
)
from tests.property.strategies import lru_geometries, traces

caches = st.lists(
    lru_geometries.map(
        lambda config: {
            "total_bytes": config.total_bytes,
            "line_size": config.line_size,
            "associativity": config.associativity,
        }
    ),
    min_size=1,
    max_size=4,
)
betas = st.floats(1.0, 64.0, allow_nan=False) | st.integers(1, 64).map(float)
specs = st.fixed_dictionaries(
    {
        "traces": st.lists(traces, min_size=1, max_size=3),
        "caches": caches,
        "policies": st.lists(
            st.sampled_from([policy.value for policy in StallPolicy]),
            min_size=1,
            max_size=3,
        ),
        "memory_cycles": st.lists(betas, min_size=1, max_size=4),
        # Every drawn line size (4..64 bytes) is a whole number of these.
        "bus_width": st.sampled_from([1, 2, 4]),
        "write_buffer_depth": st.none() | st.integers(0, 8),
        "pipelined_q": st.none() | st.floats(1.0, 4.0),
        "issue_rate": st.floats(1.0, 4.0),
        "deadline_ms": st.none() | st.floats(1.0, 1e5),
    }
).map(validate_spec)


def _sweep_request(spec, trace):
    """One trace's ``/v1/sweep`` request, spelled from the spec's fields."""
    return wire_params(
        {"trace": trace, **{name: spec[name] for name in (*GRID_AXES, *POINT_OPTIONS)}}
    )


@settings(max_examples=60, deadline=None)
@given(spec=specs)
def test_campaign_enumeration_is_sweep_grid_per_trace(spec):
    points = list(iter_points(spec))
    per_trace = len(points) // len(spec["traces"])
    for trace_index, trace in enumerate(spec["traces"]):
        grid = list(sweep_grid(validate_sweep(_sweep_request(spec, trace))))
        assert len(grid) == per_trace
        offset = trace_index * per_trace
        for (index, point, params), cp in zip(grid, points[offset:]):
            assert cp.index == offset + index
            assert cp.point == {"trace_index": trace_index, **point}
            assert point_params(spec, cp.point) == params


@settings(max_examples=60, deadline=None)
@given(spec=specs)
def test_point_keys_and_wire_forms_agree(spec):
    campaign = Campaign(Path("unused"), spec)
    for cp in iter_points(spec):
        params = point_params(spec, cp.point)
        request = validate_simulate(wire_params(params))
        assert request == params
        assert campaign.result_key_of(cp.point) == queries.result_key_of(request)


@settings(max_examples=60, deadline=None)
@given(spec=specs)
def test_every_column_subset_is_a_sub_sweep(spec):
    sweep = validate_sweep(_sweep_request(spec, spec["traces"][0]))
    grid = list(sweep_grid(sweep))
    for size in range(1, len(sweep["caches"]) + 1):
        for columns in itertools.combinations(range(len(sweep["caches"])), size):
            sub, to_global = sub_sweep(sweep, list(columns))
            assert validate_sweep(wire_params(sub)) == sub
            mapped = [
                (to_global(local), point) for local, point, _ in sweep_grid(sub)
            ]
            owned = [
                index for index, point, _ in grid if point["cache_index"] in columns
            ]
            assert sorted(index for (index, _), _ in mapped) == owned
            for (index, cache_index), point in mapped:
                assert grid[index][1] == {**point, "cache_index": cache_index}
