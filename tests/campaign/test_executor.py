"""Crash-resume and zero-rework guarantees of the campaign executor.

The acceptance pins for the subsystem live here: an interrupted
campaign resumes to a byte-identical ``results.jsonl``, and points that
already completed are never re-simulated (no ``engine.phase1.dispatches``
counters fire on a warm re-run).
"""

import shutil

import pytest

from repro.cache import events_store
from repro.campaign.executor import run_campaign
from repro.campaign.registry import CampaignRegistry
from repro.obs import metrics
from repro.service import queries

DOC = {
    "name": "exec-suite",
    "traces": [{"kind": "spec92", "name": "ear", "instructions": 400}],
    "caches": [
        {"total_bytes": 4096, "line_size": 32, "associativity": 1},
        {"total_bytes": 8192, "line_size": 32, "associativity": 2},
    ],
    "policies": ["FS"],
    "memory_cycles": [4.0, 8.0],
    "exclude": [{"cache_index": 1, "memory_cycle": 8.0}],
}
# 4 grid points, 1 excluded => 3 simulated when run to completion.


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    """An uninterrupted cold run: the byte-identity reference."""
    registry = CampaignRegistry(tmp_path_factory.mktemp("golden"))
    campaign, _ = registry.submit(DOC)
    report = run_campaign(campaign, chunk_size=2)
    assert report["progress"]["complete"]
    assert report["simulated"] == 3
    # chunk_size=2 over 3 points: one full chunk plus the final flush.
    assert report["chunks"] == 2
    return campaign


class TestCrashResume:
    def test_interrupted_resume_is_byte_identical(self, golden, tmp_path):
        registry = CampaignRegistry(tmp_path / "reg")
        campaign, _ = registry.submit(DOC)
        # max_chunks is the deterministic stand-in for "killed here":
        # the run stops after one checkpoint with work outstanding.
        partial = run_campaign(campaign, chunk_size=1, max_chunks=2)
        assert not partial["progress"]["complete"]
        assert partial["progress"]["pending"] == 1
        resumed = run_campaign(campaign, chunk_size=1)
        assert resumed["progress"]["complete"]
        assert resumed["simulated"] == 1
        assert partial["simulated"] + resumed["simulated"] == 3
        assert (
            campaign.results_path.read_bytes()
            == golden.results_path.read_bytes()
        )
        assert (
            campaign.summary_path.read_bytes()
            == golden.summary_path.read_bytes()
        )

    def test_artifact_without_checkpoint_is_adopted(self, golden, tmp_path):
        """A run killed between the artifact write and the checkpoint
        leaves an orphaned artifact; the resume adopts it instead of
        re-simulating."""
        registry = CampaignRegistry(tmp_path / "reg")
        campaign, _ = registry.submit(DOC)
        shutil.rmtree(campaign.artifacts_dir)
        shutil.copytree(golden.artifacts_dir, campaign.artifacts_dir)
        report = run_campaign(campaign, chunk_size=2)
        assert report["progress"]["complete"]
        assert report["simulated"] == 0
        assert report["reused"] == 3
        assert (
            campaign.results_path.read_bytes()
            == golden.results_path.read_bytes()
        )


class TestZeroRework:
    def test_completed_rerun_simulates_nothing(self, golden):
        collected = metrics.enable_metrics()
        try:
            report = run_campaign(golden, chunk_size=2)
        finally:
            metrics.disable_metrics()
        assert report["progress"]["complete"]
        assert report["simulated"] == 0
        assert report["reused"] == 0
        assert report["chunks"] == 0
        # The acceptance pin: nothing reached phase 1 — not even a
        # cache-served extraction.
        dispatches = [
            key
            for key in collected.snapshot()["counters"]
            if key.startswith("engine.phase1.dispatches")
        ]
        assert dispatches == []


class TestOneLoadPerStream:
    def test_each_trace_and_geometry_is_loaded_once(self, tmp_path, monkeypatch):
        """The events store's memo serves every policy x beta point of a
        (trace, geometry) after its first: one store load per stream."""
        doc = {
            "name": "one-load",
            "traces": [
                {"kind": "spec92", "name": "ear", "instructions": 600},
                {"kind": "spec92", "name": "swm256", "instructions": 600},
            ],
            "caches": [
                {"total_bytes": 1 << n, "line_size": 32} for n in (11, 12, 13)
            ],
            "policies": ["FS", "BNL3"],
            "memory_cycles": [4.0, 8.0, 16.0],
        }  # 36 points over 6 (trace, geometry) streams
        loads = []
        real_load = events_store.load

        def counted_load(trace_fingerprint, config):
            loads.append((trace_fingerprint, config))
            return real_load(trace_fingerprint, config)

        monkeypatch.setattr(events_store, "load", counted_load)
        campaign, _ = CampaignRegistry(tmp_path).submit(doc)
        report = run_campaign(campaign)
        assert report["simulated"] == 36
        assert len(loads) == len(set(loads)) == 6


class TestErrors:
    def test_classify_invalid_query_as_400(self):
        doc = queries.point_error(queries.InvalidQuery("bad trace"))
        assert doc == {
            "code": "invalid_params", "message": "bad trace", "status": 400,
        }
        assert queries.point_error(RuntimeError("boom"))["status"] == 500

    def test_errors_are_terminal_until_retried(
        self, golden, tmp_path, monkeypatch
    ):
        registry = CampaignRegistry(tmp_path / "reg")
        campaign, _ = registry.submit(DOC)

        def boom(params, events):
            raise RuntimeError("injected failure")

        monkeypatch.setattr(queries, "simulate_from_events", boom)
        report = run_campaign(campaign, chunk_size=2)
        # Errors are terminal: the campaign *completes* with them.
        assert report["errors"] == 3
        assert report["progress"]["complete"]
        assert report["progress"]["errors"] == 3
        status = campaign.load_state()
        assert status[0]["error"]["code"] == "internal_error"

        # A plain resume retries nothing.
        rerun = run_campaign(campaign, chunk_size=2)
        assert rerun["simulated"] == rerun["errors"] == 0

        # retry_errors clears them back to pending; with the failure
        # gone, the campaign converges on the golden bytes.
        monkeypatch.undo()
        retried = run_campaign(campaign, chunk_size=2, retry_errors=True)
        assert retried["simulated"] == 3
        assert retried["progress"]["errors"] == 0
        assert (
            campaign.results_path.read_bytes()
            == golden.results_path.read_bytes()
        )

    def test_overflowing_point_is_recorded_as_invalid_params(self, tmp_path):
        registry = CampaignRegistry(tmp_path / "reg")
        campaign, _ = registry.submit(
            dict(DOC, memory_cycles=[1e308], exclude=[])
        )
        report = run_campaign(campaign)
        assert report["errors"] == 2
        for entry in campaign.load_state().values():
            assert entry["error"] == {
                "code": "invalid_params",
                "message": "non-finite result: result.cycles is inf",
                "status": 400,
            }

    def test_chunk_size_validated(self, golden):
        with pytest.raises(ValueError, match="chunk_size"):
            run_campaign(golden, chunk_size=0)
