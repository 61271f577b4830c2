"""The BENCH_engine.json scoreboard schema and its CLI hook."""

import copy
import json
import pathlib

import pytest

from repro.obs import schemas, validate

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


def _document():
    return {
        "schema": schemas.BENCH_ENGINE_SCHEMA,
        "benchmarks": {
            "phase1_extract_60k_s": 0.06,
            "phase1_reuse_s": 0.03,
            "phase1_derive_marginal_s": 0.005,
            "phase2_replay_point_s": 0.002,
            "step_simulator_point_s": 0.1,
            "figure1_quick_s": 0.14,
            "all_quick_s": 2.8,
        },
        "speedup_replay_vs_step": 50.0,
        "dispatch": {
            "replay_calls": 288,
            "step_calls": 0,
            "step_fallback_reasons": {},
            "phase1": {
                "reuse_calls": 42,
                "step_calls": 0,
                "step_reasons": {},
            },
        },
        "phase_breakdown": {
            "source": "all_quick_cold",
            "profile_id": "prof-test00000001",
            "hz": 500,
            "duration_s": 2.8,
            "phases": {
                "phase1.extract": {
                    "samples": 500,
                    "self_s": 1.0,
                    "fraction": 0.4545,
                },
                "phase2.replay": {
                    "samples": 600,
                    "self_s": 1.2,
                    "fraction": 0.5455,
                },
            },
        },
        "profiler_overhead": {
            "off_s": 0.9,
            "on_s": 0.92,
            "ratio": 1.0222,
            "hz": 97,
        },
        "metrics": {"counters": {}, "histograms": {}},
        "provenance": {
            "git_sha": "0" * 40,
            "python": "3.11.7",
            "platform": "Linux-test",
            "cpu_count": 8,
        },
    }


class TestValidateBenchEngine:
    def test_accepts_valid_document(self):
        schemas.validate_bench_engine(_document())

    def test_committed_scoreboard_validates(self):
        document = json.loads((REPO_ROOT / "BENCH_engine.json").read_text())
        schemas.validate_bench_engine(document)
        assert document["dispatch"]["step_calls"] == 0

    def test_rejects_step_calls(self):
        document = _document()
        document["dispatch"]["step_calls"] = 3
        with pytest.raises(schemas.SchemaError, match="step_calls"):
            schemas.validate_bench_engine(document)

    def test_rejects_missing_all_quick(self):
        document = _document()
        del document["benchmarks"]["all_quick_s"]
        with pytest.raises(schemas.SchemaError, match="all_quick_s"):
            schemas.validate_bench_engine(document)

    def test_rejects_old_schema_version(self):
        document = _document()
        document["schema"] = "repro.bench.engine/1"
        with pytest.raises(schemas.SchemaError, match="schema"):
            schemas.validate_bench_engine(document)

    def test_rejects_zero_replay_calls(self):
        document = _document()
        document["dispatch"]["replay_calls"] = 0
        with pytest.raises(schemas.SchemaError, match="replay_calls"):
            schemas.validate_bench_engine(document)

    def test_rejects_missing_provenance(self):
        document = _document()
        del document["provenance"]
        with pytest.raises(schemas.SchemaError, match="provenance"):
            schemas.validate_bench_engine(document)

    def test_rejects_bad_cpu_count(self):
        document = _document()
        document["provenance"]["cpu_count"] = 0
        with pytest.raises(schemas.SchemaError, match="cpu_count"):
            schemas.validate_bench_engine(document)

    def test_rejects_missing_phase1_reuse_headline(self):
        document = _document()
        del document["benchmarks"]["phase1_reuse_s"]
        with pytest.raises(schemas.SchemaError, match="phase1_reuse_s"):
            schemas.validate_bench_engine(document)

    def test_rejects_phase1_stepping(self):
        """The CI perf-smoke contract: an LRU-only sweep must never
        step Cache in phase 1."""
        document = _document()
        document["dispatch"]["phase1"]["step_calls"] = 2
        document["dispatch"]["phase1"]["step_reasons"] = {"disabled": 2}
        with pytest.raises(schemas.SchemaError, match="phase1.step_calls"):
            schemas.validate_bench_engine(document)

    def test_rejects_zero_reuse_calls(self):
        document = _document()
        document["dispatch"]["phase1"]["reuse_calls"] = 0
        with pytest.raises(schemas.SchemaError, match="reuse_calls"):
            schemas.validate_bench_engine(document)

    def test_rejects_missing_phase1_section(self):
        document = _document()
        del document["dispatch"]["phase1"]
        with pytest.raises(schemas.SchemaError, match="phase1"):
            schemas.validate_bench_engine(document)

    def test_rejects_missing_phase_breakdown(self):
        """Schema /5 makes the profiler's phase table mandatory."""
        document = _document()
        del document["phase_breakdown"]
        with pytest.raises(schemas.SchemaError, match="phase_breakdown"):
            schemas.validate_bench_engine(document)

    def test_rejects_empty_phase_table(self):
        document = _document()
        document["phase_breakdown"]["phases"] = {}
        with pytest.raises(schemas.SchemaError, match="phases"):
            schemas.validate_bench_engine(document)

    def test_rejects_bad_phase_fraction(self):
        document = _document()
        document["phase_breakdown"]["phases"]["phase1.extract"][
            "fraction"
        ] = 1.5
        with pytest.raises(schemas.SchemaError, match="fraction"):
            schemas.validate_bench_engine(document)

    def test_rejects_nonpositive_overhead_ratio(self):
        document = _document()
        document["profiler_overhead"]["ratio"] = 0
        with pytest.raises(schemas.SchemaError, match="ratio"):
            schemas.validate_bench_engine(document)

    def test_overhead_above_budget_still_validates(self):
        """The 5% budget is enforced by the bench script's exit code,
        not the schema: a noisy machine must not retro-invalidate a
        committed scoreboard."""
        document = _document()
        document["profiler_overhead"]["ratio"] = 1.3
        schemas.validate_bench_engine(document)


class TestValidateCli:
    def test_bench_flag(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text(json.dumps(_document()))
        assert validate.main(["--bench", str(good)]) == 0

        bad_document = copy.deepcopy(_document())
        bad_document["dispatch"]["step_calls"] = 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(bad_document))
        assert validate.main(["--bench", str(bad)]) == 1

    def test_unreadable_level_key_is_invalid_not_a_crash(self, tmp_path, capsys):
        document = json.loads((REPO_ROOT / "BENCH_service.json").read_text())
        document["levels"]["many"] = document["levels"]["1"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(document))
        good = REPO_ROOT / "BENCH_service.json"
        # The bad file fails; the file after it is still checked.
        argv = ["--bench-service", str(bad), "--bench-service", str(good)]
        assert validate.main(argv) == 1
        assert f"{good}: ok" in capsys.readouterr().out
