"""Run manifests: construction, determinism, schema validity."""

import json

import pytest

from repro.obs import manifest, schemas
from repro.util.jsonout import read_json


def _snapshot(replay_calls=3, step_calls=0):
    counters = {
        "eq2.execute_cycles": 900.0,
        "eq2.read_stall_cycles": 60.0,
        "eq2.flush_stall_cycles": 30.0,
        "eq2.write_buffer_stall_cycles": 10.0,
        "eq2.total_cycles": 1000.0,
    }
    if replay_calls:
        counters["engine.replay.calls"] = replay_calls
    if step_calls:
        counters["engine.step.calls"] = step_calls
    return {"counters": counters, "histograms": {}}


def _build(**overrides):
    kwargs = dict(
        experiment_id="figure1",
        title="Figure 1",
        quick=True,
        jobs=1,
        seed=7,
        n_instructions=8_000,
        wall_time_s=0.25,
        outputs=["figure1.txt", "figure1.csv"],
        metrics_snapshot=_snapshot(),
    )
    kwargs.update(overrides)
    return manifest.build_manifest(**kwargs)


class TestBuild:
    def test_validates_against_schema(self):
        schemas.validate_manifest(_build())

    def test_eq2_lifted_from_snapshot(self):
        document = _build()
        assert document["eq2"]["total_cycles"] == 1000.0
        assert document["eq2"]["execute_cycles"] == 900.0

    def test_engine_path_classification(self):
        assert _build()["engine"]["path"] == "replay"
        step = _build(metrics_snapshot=_snapshot(replay_calls=0, step_calls=2))
        assert step["engine"]["path"] == "step"
        mixed = _build(metrics_snapshot=_snapshot(replay_calls=1, step_calls=1))
        assert mixed["engine"]["path"] == "mixed"

    def test_analytic_experiment_without_metrics(self):
        document = _build(metrics_snapshot=None)
        assert document["engine"]["path"] == "analytic"
        assert document["eq2"]["total_cycles"] == 0
        schemas.validate_manifest(document)

    def test_outputs_sorted(self):
        document = _build(outputs=["b.csv", "a.txt"])
        assert document["outputs"] == ["a.txt", "b.csv"]

    def test_provenance_populated(self):
        provenance = _build()["provenance"]
        assert provenance["python"].count(".") >= 1
        assert provenance["created_at"].endswith("+00:00")
        assert provenance["numpy"]


class TestStability:
    def test_stable_view_strips_only_volatile_keys(self):
        document = _build()
        stable = manifest.stable_view(document)
        for key in manifest.VOLATILE_KEYS:
            assert key in document and key not in stable
        assert stable["eq2"] == document["eq2"]

    def test_two_builds_agree_on_stable_view(self):
        first = _build(wall_time_s=0.1)
        second = _build(wall_time_s=99.9)
        assert manifest.stable_view(first) == manifest.stable_view(second)

    def test_diagnostic_counters_stripped(self):
        """Cold/warm determinism: diagnostic-only counters — including
        labeled ones, matched on the base name before '{' — vanish from
        the stable view; everything else survives untouched."""
        snapshot = _snapshot()
        snapshot["counters"]["store.corrupt_recompute{store=events}"] = 1
        snapshot["counters"]["store.corrupt_recompute{store=reuse}"] = 2
        snapshot["counters"]["store.corrupt_recompute{store=campaign}"] = 1
        snapshot["counters"][
            "engine.phase1.dispatches{engine=reuse,reason=lru_wb_wa}"
        ] = 7
        snapshot["counters"][
            "engine.phase1.dispatches{engine=step,reason=disabled}"
        ] = 3
        document = _build(metrics_snapshot=snapshot)
        stable = manifest.stable_view(document)
        remaining = stable["metrics"]["counters"]
        for key in remaining:
            assert manifest._counter_base(key) not in (
                manifest.DIAGNOSTIC_COUNTERS
            )
        assert remaining["eq2.total_cycles"] == 1000.0
        assert manifest.DIAGNOSTIC_COUNTERS == {
            "store.corrupt_recompute",
            "engine.phase1.dispatches",
        }
        # The input document is not mutated.
        assert (
            "store.corrupt_recompute{store=reuse}"
            in document["metrics"]["counters"]
        )

    def test_cold_and_warm_snapshots_agree(self):
        """A cold run counts phase-1 dispatches; a warm run never reaches
        the dispatcher.  Their stable views must still be equal."""
        cold = _snapshot()
        cold["counters"][
            "engine.phase1.dispatches{engine=reuse,reason=lru_wb_wa}"
        ] = 42
        warm = _snapshot()
        assert manifest.stable_view(
            _build(metrics_snapshot=cold)
        ) == manifest.stable_view(_build(metrics_snapshot=warm))


class TestWrite:
    def test_write_path_and_round_trip(self, tmp_path):
        path = manifest.write_manifest(tmp_path, "figure1", _build())
        assert path == tmp_path / "figure1.meta.json"
        loaded = read_json(path)
        schemas.validate_manifest(loaded)
        assert loaded == json.loads(path.read_text())


class TestSchemaRejects:
    def test_eq2_terms_must_sum(self):
        document = _build()
        document["eq2"]["execute_cycles"] += 1.0
        with pytest.raises(schemas.SchemaError, match="sum"):
            schemas.validate_manifest(document)

    def test_bad_engine_path(self):
        document = _build()
        document["engine"]["path"] = "quantum"
        with pytest.raises(schemas.SchemaError, match="path"):
            schemas.validate_manifest(document)
