"""Request validation: defaults, bounds, and JSON-path error messages."""

import pytest

from repro.obs.schemas import SchemaError
from repro.service.schemas import (
    MAX_INSTRUCTIONS,
    validate_advise,
    validate_execution_time,
    validate_ranking,
    validate_simulate,
    validate_sweep,
    validate_tradeoff,
)


class TestExecutionTime:
    def test_defaults_fill_in(self):
        out = validate_execution_time({"hit_ratio": 0.95})
        assert out["bus_width"] == 4
        assert out["memory_cycle"] == 8.0
        assert out["policy"] == "FS"
        assert out["flush_ratio"] == 0.5

    def test_hit_ratio_required_and_bounded(self):
        with pytest.raises(SchemaError, match=r"\$\.params\.hit_ratio"):
            validate_execution_time({})
        with pytest.raises(SchemaError, match=r"\$\.params\.hit_ratio"):
            validate_execution_time({"hit_ratio": 1.5})

    def test_unknown_keys_rejected(self):
        with pytest.raises(SchemaError, match="unknown"):
            validate_execution_time({"hit_ratio": 0.9, "hit_rato": 0.9})

    def test_not_an_object(self):
        with pytest.raises(SchemaError, match=r"\$\.params"):
            validate_execution_time([1, 2])


class TestTradeoff:
    def test_partial_stalling_needs_phi(self):
        with pytest.raises(SchemaError, match="stall_factor"):
            validate_tradeoff(
                {"feature": "partial-stalling", "base_hit_ratio": 0.9}
            )
        out = validate_tradeoff(
            {
                "feature": "partial-stalling",
                "base_hit_ratio": 0.9,
                "stall_factor": 0.4,
            }
        )
        assert out["stall_factor"] == 0.4

    def test_feature_choice_enforced(self):
        with pytest.raises(SchemaError, match=r"\$\.params\.feature"):
            validate_tradeoff({"feature": "warp-drive", "base_hit_ratio": 0.9})


class TestRanking:
    def test_betas_required_and_bounded(self):
        with pytest.raises(SchemaError, match=r"\$\.params\.betas"):
            validate_ranking({"base_hit_ratio": 0.9})
        with pytest.raises(SchemaError, match=r"betas\[1\]"):
            validate_ranking({"base_hit_ratio": 0.9, "betas": [2.0, 0.5]})
        with pytest.raises(SchemaError, match=r"\$\.params\.betas"):
            validate_ranking({"base_hit_ratio": 0.9, "betas": [2.0] * 65})

    def test_stall_factors_must_parallel_betas(self):
        with pytest.raises(SchemaError, match="parallel"):
            validate_ranking(
                {
                    "base_hit_ratio": 0.9,
                    "betas": [2.0, 4.0],
                    "stall_factors": [0.4],
                }
            )


class TestAdvise:
    def test_defaults(self):
        out = validate_advise({})
        assert out["cache_kib"] == 8
        assert out["stall_factor"] is None


class TestSimulate:
    def test_defaults_give_quick_spec92(self):
        out = validate_simulate({})
        assert out["trace"] == {
            "kind": "spec92",
            "name": "swm256",
            "instructions": 8_000,
            "seed": 7,
        }
        assert out["cache"] == {
            "total_bytes": 8192,
            "line_size": 32,
            "associativity": 2,
        }
        assert out["policy"] == "FS"
        assert out["issue_rate"] == 1.0
        assert out["deadline_ms"] is None

    def test_trace_bounds(self):
        with pytest.raises(SchemaError, match="instructions"):
            validate_simulate(
                {
                    "trace": {
                        "kind": "spec92",
                        "name": "swm256",
                        "instructions": MAX_INSTRUCTIONS + 1,
                    }
                }
            )
        with pytest.raises(SchemaError, match=r"\$\.params\.trace\.name"):
            validate_simulate({"trace": {"kind": "spec92", "name": "doom"}})
        with pytest.raises(SchemaError, match=r"\$\.params\.trace\.n"):
            validate_simulate({"trace": {"kind": "matmul", "n": 4096}})

    def test_matmul_trace_normalised(self):
        out = validate_simulate({"trace": {"kind": "matmul", "n": 16}})
        assert out["trace"] == {
            "kind": "matmul",
            "n": 16,
            "tile": None,
            "element_size": 8,
            "alu_per_reference": 2,
        }

    def test_geometry_power_of_two(self):
        with pytest.raises(SchemaError, match="power of two"):
            validate_simulate({"cache": {"total_bytes": 3000}})

    def test_line_size_must_cover_bus(self):
        with pytest.raises(SchemaError, match="multiple of bus_width"):
            validate_simulate({"cache": {"line_size": 4}, "bus_width": 8})

    def test_unknown_keys_rejected_everywhere(self):
        with pytest.raises(SchemaError, match="unknown"):
            validate_simulate({"warp": 9})
        with pytest.raises(SchemaError, match="unknown"):
            validate_simulate({"trace": {"kind": "spec92", "nam": "swm256"}})
        with pytest.raises(SchemaError, match="unknown"):
            validate_simulate({"cache": {"bytes": 8192}})


class TestPinnedMessages:
    """One request per message template: the 400 bodies are an API."""

    @pytest.mark.parametrize(
        "validate, params, message",
        [
            (
                validate_simulate,
                {"memory_cycle": "x"},
                "$.params.memory_cycle: expected a number, got str",
            ),
            (
                validate_simulate,
                {"bus_width": 4.0},
                "$.params.bus_width: expected an integer, got float",
            ),
            (validate_simulate, {"trace": {}}, "$.params.trace.kind: is required"),
            (
                validate_tradeoff,
                {"feature": "partial-stalling", "base_hit_ratio": 0.9},
                "$.params.stall_factor: is required for feature "
                "'partial-stalling' (a trace-measured phi)",
            ),
            (
                validate_advise,
                {"cache_kib": 65537},
                "$.params.cache_kib: must be <= 65536",
            ),
            (
                validate_simulate,
                {"memory_cycle": 0.5},
                "$.params.memory_cycle: must be >= 1.0",
            ),
            (
                validate_simulate,
                {"trace": None},
                "$.params.trace: must be a JSON object",
            ),
            (
                validate_execution_time,
                {"hit_ratio": 0.9, "write_buffers": 1},
                "$.params.write_buffers: must be a bool",
            ),
            (
                validate_ranking,
                {"base_hit_ratio": 0.9, "betas": [2.0], "stall_factors": [0.1, 0.2]},
                "$.params.stall_factors: must be a list parallel to betas "
                "(one measured phi per beta)",
            ),
            (
                validate_simulate,
                {"bus_width": 3},
                "$.params.cache.line_size: must be a multiple of bus_width (3)",
            ),
            (
                validate_sweep,
                {"caches": [], "memory_cycles": [4]},
                "$.params.caches: must be a non-empty list of at most 64 cache "
                "specs",
            ),
            (
                validate_ranking,
                {"base_hit_ratio": 0.9},
                "$.params.betas: must be a non-empty list of at most 64 numbers",
            ),
            (
                validate_sweep,
                {},
                "$.params.memory_cycles: must be a non-empty list of numbers",
            ),
            (
                validate_sweep,
                {"policies": [], "memory_cycles": [4]},
                "$.params.policies: must be a non-empty list of stall policies",
            ),
            (
                validate_simulate,
                {"cache": {"total_bytes": 3000}},
                "$.params.cache.total_bytes: must be a power of two",
            ),
            (
                validate_simulate,
                {"policy": "XX"},
                "$.params.policy: must be one of "
                "['FS', 'BL', 'BNL1', 'BNL2', 'BNL3', 'NB']",
            ),
            (
                validate_simulate,
                {"warp": 9},
                "$.params: unknown parameter(s) ['warp']",
            ),
            (
                validate_simulate,
                {"memory_cycle": float("inf")},
                "$.params.memory_cycle: must be a finite number",
            ),
        ],
    )
    def test_message(self, validate, params, message):
        with pytest.raises(SchemaError) as excinfo:
            validate(params)
        assert str(excinfo.value) == message

    def test_sweep_errors_name_the_failing_cache(self):
        with pytest.raises(SchemaError) as excinfo:
            validate_sweep(
                {"caches": [{}, {"total_bytes": 3000}], "memory_cycles": [4]}
            )
        assert str(excinfo.value) == (
            "$.params.caches[1].total_bytes: must be a power of two"
        )

    def test_numbers_normalize_to_float(self):
        out = validate_simulate({"memory_cycle": 8, "issue_rate": 2})
        assert type(out["memory_cycle"]) is float
        assert type(out["issue_rate"]) is float
        assert type(out["bus_width"]) is int
