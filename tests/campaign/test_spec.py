"""Campaign specs: validation, normalization, content identity."""

import pytest

from repro.campaign.spec import (
    CAMPAIGN_SPEC_SCHEMA,
    CampaignPoint,
    SchemaError,
    campaign_id,
    canonical_bytes,
    iter_points,
    point_count,
    point_params,
    validate_name,
    validate_spec,
)
from repro.service.schemas import wire_params

SPEC = {
    "name": "unit",
    "traces": [{"kind": "spec92", "name": "ear", "instructions": 500}],
    "caches": [
        {"total_bytes": 4096, "line_size": 32, "associativity": 1},
        {"total_bytes": 8192, "line_size": 32, "associativity": 2},
    ],
    "policies": ["FS", "BL"],
    "memory_cycles": [4.0, 8.0],
}


class TestValidation:
    def test_defaults_applied(self):
        spec = validate_spec({})
        assert spec["schema"] == CAMPAIGN_SPEC_SCHEMA
        assert spec["traces"][0]["kind"] == "spec92"
        assert len(spec["caches"]) == 1
        assert spec["policies"] == ["FS"]
        assert spec["memory_cycles"] == [8.0]
        assert spec["bus_width"] == 4
        assert spec["issue_rate"] == 1.0
        # Unset optionals are spelled as explicit nulls in the normal
        # form (part of the canonical rendering).
        assert spec["write_buffer_depth"] is None
        assert spec["pipelined_q"] is None
        assert spec["deadline_ms"] is None
        assert spec["exclude"] == []

    def test_validate_is_idempotent(self):
        once = validate_spec(dict(SPEC))
        assert validate_spec(once) == once

    def test_unknown_key_rejected(self):
        with pytest.raises(SchemaError, match="unknown key"):
            validate_spec({"sweeps": []})

    def test_bad_policy_rejected(self):
        with pytest.raises(SchemaError, match=r"policies\[0\]"):
            validate_spec({"policies": ["NOPE"]})

    def test_memory_cycle_below_one_rejected(self):
        with pytest.raises(SchemaError, match=r"memory_cycles\[0\]"):
            validate_spec({"memory_cycles": [0.5]})

    def test_line_size_must_be_bus_multiple(self):
        with pytest.raises(SchemaError, match="multiple of bus_width"):
            validate_spec(
                {"caches": [{"line_size": 16}], "bus_width": 32}
            )

    def test_wrong_schema_tag_rejected(self):
        with pytest.raises(SchemaError, match=r"\$\.schema"):
            validate_spec({"schema": "repro.campaign.spec/999"})

    def test_names_are_path_safe(self):
        assert validate_name("beta-sweep_v1.2", "$.name") == "beta-sweep_v1.2"
        for bad in ("", ".hidden", "a/b", "x" * 65, "sp ace"):
            with pytest.raises(SchemaError):
                validate_name(bad, "$.name")


class TestExclusionRules:
    def test_rules_validated(self):
        spec = validate_spec(
            {**SPEC, "exclude": [{"cache_index": 0, "policy": "BL"}]}
        )
        assert spec["exclude"] == [{"cache_index": 0, "policy": "BL"}]

    def test_empty_rule_rejected(self):
        with pytest.raises(SchemaError, match="at least one"):
            validate_spec({**SPEC, "exclude": [{}]})

    def test_unknown_rule_key_rejected(self):
        with pytest.raises(SchemaError, match="unknown exclusion key"):
            validate_spec({**SPEC, "exclude": [{"cache": 0}]})

    def test_out_of_range_index_rejected(self):
        with pytest.raises(SchemaError, match=r"exclude\[0\]"):
            validate_spec({**SPEC, "exclude": [{"cache_index": 2}]})

    def test_rule_conjunction_marks_matching_points(self):
        spec = validate_spec(
            {**SPEC, "exclude": [{"cache_index": 1, "policy": "BL"}]}
        )
        points = list(iter_points(spec))
        excluded = [cp for cp in points if cp.excluded]
        # Rule keys AND together: cache 1 AND policy BL, both betas.
        assert len(excluded) == 2
        for cp in excluded:
            assert cp.point["cache_index"] == 1
            assert cp.point["policy"] == "BL"
        # The index space is unchanged by exclusion.
        assert len(points) == point_count(spec) == 8


class TestContentIdentity:
    def test_id_ignores_spelling(self):
        spec = validate_spec(dict(SPEC))
        explicit = validate_spec(
            {
                **SPEC,
                "schema": CAMPAIGN_SPEC_SCHEMA,
                "bus_width": 4,
                "issue_rate": 1.0,
                "exclude": [],
            }
        )
        assert campaign_id(spec) == campaign_id(explicit)

    def test_id_tracks_the_grid(self):
        base = campaign_id(validate_spec(dict(SPEC)))
        other = campaign_id(
            validate_spec({**SPEC, "memory_cycles": [4.0, 16.0]})
        )
        assert base != other
        assert len(base) == 64

    def test_canonical_bytes_round_trip(self):
        import json

        spec = validate_spec(dict(SPEC))
        assert validate_spec(json.loads(canonical_bytes(spec))) == spec


class TestEnumeration:
    def test_trace_major_then_sweep_grid_order(self):
        spec = validate_spec(
            {
                **SPEC,
                "traces": [
                    {"kind": "spec92", "name": "ear", "instructions": 500},
                    {"kind": "spec92", "name": "swm256", "instructions": 500},
                ],
            }
        )
        points = list(iter_points(spec))
        assert [cp.index for cp in points] == list(range(16))
        assert isinstance(points[0], CampaignPoint)
        # Trace-major: first half trace 0, second half trace 1.
        assert all(cp.point["trace_index"] == 0 for cp in points[:8])
        assert all(cp.point["trace_index"] == 1 for cp in points[8:])
        # Within a trace: cache, then policy, then beta (sweep_grid).
        first = points[:4]
        assert [cp.point["cache_index"] for cp in first] == [0, 0, 0, 0]
        assert [cp.point["policy"] for cp in first] == ["FS", "FS", "BL", "BL"]
        assert [cp.point["memory_cycle"] for cp in first] == [
            4.0, 8.0, 4.0, 8.0,
        ]

    def test_point_params_match_simulate_shape(self):
        spec = validate_spec(dict(SPEC))
        cp = next(iter_points(spec))
        params = point_params(spec, cp.point)
        assert params["trace"] == spec["traces"][0]
        assert params["cache"] == spec["caches"][0]
        assert params["policy"] == "FS"
        assert params["write_buffer_depth"] is None
        # The wire form drops nulls (request validators reject them).
        wire = wire_params(params)
        assert "write_buffer_depth" not in wire
        assert "deadline_ms" not in wire
        assert wire["memory_cycle"] == 4.0


class TestPinnedMessages:
    """One spec per campaign-only message template (the CLI's errors)."""

    @pytest.mark.parametrize(
        "document, message",
        [
            ({"schema": "x"}, "$.schema: must be 'repro.campaign.spec/1'"),
            (
                {"exclude": None},
                "$.exclude: must be a list of at most 256 exclusion rules",
            ),
            (
                {"traces": []},
                "$.traces: must be a non-empty list of at most 16 trace specs",
            ),
            ({"name": ""}, "$.name: must be a string of 1..64 characters"),
            (
                {"name": "a/b"},
                "$.name: may use only letters, digits, '.', '_', '-' "
                "(no leading '.')",
            ),
            (
                {"exclude": [{}]},
                "$.exclude[0]: must constrain at least one of "
                "['trace_index', 'cache_index', 'policy', 'memory_cycle']",
            ),
            ([1], "$: spec must be a JSON object"),
            (
                {"exclude": [{"cache": 0}]},
                "$.exclude[0]: unknown exclusion key(s) ['cache']",
            ),
            ({"sweeps": []}, "$: unknown key(s) ['sweeps']"),
            (
                {"exclude": [{"cache_index": 1}]},
                "$.exclude[0].cache_index: must be <= 0",
            ),
            (
                {"caches": [{}, {"line_size": 2}]},
                "$.caches[1].line_size: must be a multiple of bus_width (4)",
            ),
        ],
    )
    def test_message(self, document, message):
        with pytest.raises(SchemaError) as excinfo:
            validate_spec(document)
        assert str(excinfo.value) == message

    @pytest.mark.parametrize(
        "document, message",
        [
            ({"memory_cycles": [float("inf")]}, "$.memory_cycles[0]"),
            ({"memory_cycles": [float("nan")]}, "$.memory_cycles[0]"),
            ({"memory_cycles": [10**400]}, "$.memory_cycles[0]"),
            ({"pipelined_q": float("inf")}, "$.pipelined_q"),
            (
                {"exclude": [{"memory_cycle": float("nan")}]},
                "$.exclude[0].memory_cycle",
            ),
        ],
    )
    def test_non_finite_numbers_rejected(self, document, message):
        # A content address over non-JSON bytes ("Infinity") would name a
        # spec.json that strict JSON readers reject.
        with pytest.raises(SchemaError) as excinfo:
            validate_spec(document)
        assert str(excinfo.value) == f"{message}: must be a finite number"
