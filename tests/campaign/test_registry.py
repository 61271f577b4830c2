"""The campaign registry: content addressing, atomicity, recovery.

One module-scoped completed campaign seeds these tests; each test gets
its own copy-on-write clone of the registry directory, so corruption
tests can vandalize freely.
"""

import json
import shutil

import pytest

from repro.campaign.executor import run_campaign
from repro.campaign.registry import (
    CAMPAIGN_RESULTS_SCHEMA,
    CampaignRegistry,
    validate_campaign_dir,
)
from repro.campaign.spec import SchemaError
from repro.obs import metrics

DOC = {
    "name": "reg-suite",
    "traces": [{"kind": "spec92", "name": "ear", "instructions": 400}],
    "caches": [{"total_bytes": 4096, "line_size": 32, "associativity": 1}],
    "policies": ["FS"],
    "memory_cycles": [4.0, 8.0],
}


@pytest.fixture(scope="module")
def seeded(tmp_path_factory):
    root = tmp_path_factory.mktemp("campaign-registry")
    registry = CampaignRegistry(root)
    campaign, created = registry.submit(DOC)
    assert created
    report = run_campaign(campaign, chunk_size=1)
    assert report["progress"]["complete"]
    registry.promote(campaign, "seeded-base")
    return root


@pytest.fixture
def registry(seeded, tmp_path):
    clone = tmp_path / "reg"
    shutil.copytree(seeded, clone)
    return CampaignRegistry(clone)


class TestSubmit:
    def test_idempotent_and_state_preserved(self, registry):
        first = registry.find("reg-suite")
        done_before = first.progress()["done"]
        again, created = registry.submit(DOC)
        assert created is False
        assert again.id == first.id
        # Resubmitting carried the existing progress forward.
        assert again.progress()["done"] == done_before == 2

    def test_created_state_seeds_exclusions(self, tmp_path):
        registry = CampaignRegistry(tmp_path / "fresh")
        campaign, created = registry.submit(
            {**DOC, "exclude": [{"memory_cycle": 8.0}]}
        )
        assert created
        status = campaign.load_state()
        assert status == {1: {"excluded": True}}
        assert campaign.progress(status)["excluded"] == 1

    def test_invalid_spec_rejected(self, registry):
        with pytest.raises(SchemaError):
            registry.submit({"policies": ["NOPE"]})


class TestFind:
    def test_by_id_prefix_and_name(self, registry):
        campaign = registry.find("reg-suite")
        assert registry.find(campaign.id).id == campaign.id
        assert registry.find(campaign.id[:10]).id == campaign.id

    def test_no_match_raises(self, registry):
        with pytest.raises(KeyError, match="no campaign matching"):
            registry.find("definitely-not-here")

    def test_ambiguous_name_raises(self, registry):
        registry.submit({**DOC, "memory_cycles": [16.0]})
        with pytest.raises(KeyError, match="ambiguous"):
            registry.find("reg-suite")

    def test_get_detects_a_moved_directory(self, registry):
        campaign = registry.find("reg-suite")
        bogus = "0" * 64
        campaign.dir.rename(registry.root / bogus)
        with pytest.raises(KeyError, match="corrupt registry"):
            registry.get(bogus)


class TestStateRecovery:
    def test_corrupt_state_rebuilds_from_artifacts(self, registry):
        campaign = registry.find("reg-suite")
        campaign.state_path.write_bytes(b'{"schema": "garbage"')
        collected = metrics.enable_metrics()
        try:
            status = campaign.load_state()
        finally:
            metrics.disable_metrics()
        assert campaign.progress(status)["done"] == 2
        assert (
            collected.counter("store.corrupt_recompute", store="campaign_state")
            == 1
        )

    def test_torn_state_sidecar_rebuilds(self, registry):
        campaign = registry.find("reg-suite")
        # The checkpoint itself is intact, but the checksum says
        # otherwise: a torn write must not be trusted.
        (campaign.dir / "state.json.sum").write_text(
            '{"sha256": "' + "f" * 64 + '", "size": 1}'
        )
        status = campaign.load_state()
        assert campaign.progress(status)["done"] == 2

    def test_missing_state_rebuilds_silently(self, registry):
        campaign = registry.find("reg-suite")
        campaign.state_path.unlink()
        (campaign.dir / "state.json.sum").unlink()
        collected = metrics.enable_metrics()
        try:
            status = campaign.load_state()
        finally:
            metrics.disable_metrics()
        assert campaign.progress(status)["done"] == 2
        # Absence is normal (a never-run campaign), not corruption.
        assert (
            collected.counter("store.corrupt_recompute", store="campaign_state")
            == 0
        )


class TestArtifacts:
    def test_round_trip(self, registry):
        campaign = registry.find("reg-suite")
        campaign.store_artifact("k" * 64, b'{"x": 1}')
        assert campaign.load_artifact("k" * 64) == b'{"x": 1}'

    def test_corrupt_payload_degrades_to_none(self, registry):
        campaign = registry.find("reg-suite")
        status = campaign.load_state()
        key = status[0]["artifact"]
        (campaign.artifacts_dir / f"{key}.bin").write_bytes(b"truncated")
        collected = metrics.enable_metrics()
        try:
            assert campaign.load_artifact(key) is None
        finally:
            metrics.disable_metrics()
        assert (
            collected.counter("store.corrupt_recompute", store="campaign")
            == 1
        )
        # A lost artifact reopens its point: the results stream drops
        # the record and reports the campaign incomplete.
        lines = [json.loads(line) for line in campaign.result_lines(status)]
        assert lines[-1]["done"] is False

    def test_missing_artifact_is_not_corruption(self, registry):
        campaign = registry.find("reg-suite")
        assert campaign.load_artifact("0" * 64) is None


class TestResults:
    def test_stream_framing(self, registry):
        campaign = registry.find("reg-suite")
        lines = [json.loads(line) for line in campaign.result_lines()]
        header, *points, summary = lines
        assert header["schema"] == CAMPAIGN_RESULTS_SCHEMA
        assert header["campaign"] == campaign.id
        assert header["name"] == "reg-suite"
        assert sorted(record["index"] for record in points) == [0, 1]
        assert summary == {
            "done": True, "errors": 0, "excluded": 0, "points": 2,
        }

    def test_write_results_refuses_incomplete(self, tmp_path):
        registry = CampaignRegistry(tmp_path / "fresh")
        campaign, _ = registry.submit(DOC)
        with pytest.raises(RuntimeError, match="pending"):
            campaign.write_results()

    def test_validate_campaign_dir_ok(self, registry):
        campaign = registry.find("reg-suite")
        counts = validate_campaign_dir(campaign.dir)
        assert counts["campaign"] == campaign.id
        assert counts["done"] == 2
        assert counts["results"] == {"errors": 0, "excluded": 0}

    def test_validate_campaign_dir_catches_tampering(self, registry):
        campaign = registry.find("reg-suite")
        with open(campaign.results_path, "ab") as handle:
            handle.write(b'{"index": 0, "point": {}, "result": {}}\n')
        with pytest.raises(SchemaError):
            validate_campaign_dir(campaign.dir)

    def test_validate_campaign_dir_catches_wrong_address(self, registry):
        campaign = registry.find("reg-suite")
        moved = registry.root / ("1" * 64)
        shutil.copytree(campaign.dir, moved)
        with pytest.raises(SchemaError, match="content address"):
            validate_campaign_dir(moved)


class TestBaselines:
    def test_promote_pins_spec_and_results(self, registry):
        campaign = registry.find("reg-suite")
        target = registry.promote(campaign, "golden")
        assert (target / "spec.json").read_bytes() == (
            campaign.spec_path.read_bytes()
        )
        assert (target / "results.jsonl").read_bytes() == (
            campaign.results_path.read_bytes()
        )
        doc = json.loads((target / "baseline.json").read_text())
        assert doc["campaign"] == campaign.id
        assert doc["done"] == 2
        names = [b["name"] for b in registry.baselines()]
        assert names == ["golden", "seeded-base"]

    def test_promote_refuses_overwrite_without_force(self, registry):
        campaign = registry.find("reg-suite")
        with pytest.raises(FileExistsError, match="--force"):
            registry.promote(campaign, "seeded-base")
        registry.promote(campaign, "seeded-base", force=True)

    def test_promote_rejects_incomplete(self, tmp_path):
        registry = CampaignRegistry(tmp_path / "fresh")
        campaign, _ = registry.submit(DOC)
        with pytest.raises(RuntimeError, match="pending"):
            registry.promote(campaign, "too-soon")

    def test_baseline_names_are_validated(self, registry):
        with pytest.raises(SchemaError):
            registry.baseline_dir("../escape")
