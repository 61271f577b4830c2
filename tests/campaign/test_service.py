"""Campaigns as a service: endpoints, background execution, restart.

Every test byte-compares the server-written registry against a local
(in-process) run of the same spec — the two executors must be
interchangeable artifacts-for-artifacts.
"""

import time

import pytest

from repro.campaign.executor import run_campaign
from repro.campaign.registry import (
    CAMPAIGN_DIR_ENV,
    CampaignRegistry,
    validate_campaign_dir,
)
from repro.service import ServerConfig, ServerThread, ServiceClient, ServiceError

DOC = {
    "name": "svc",
    "traces": [{"kind": "spec92", "name": "ear", "instructions": 600}],
    "caches": [
        {"total_bytes": 4096, "line_size": 32, "associativity": 1},
        {"total_bytes": 8192, "line_size": 32, "associativity": 2},
    ],
    "policies": ["FS"],
    "memory_cycles": [4.0, 8.0],
}


def _local_reference(tmp_path, doc=DOC):
    registry = CampaignRegistry(tmp_path / "local-ref")
    campaign, _ = registry.submit(doc)
    assert run_campaign(campaign)["progress"]["complete"]
    return campaign


@pytest.fixture
def campaign_server(tmp_path, monkeypatch):
    registry_dir = tmp_path / "server-reg"
    # The env override beats the configured path, so aim both at the
    # same per-test directory.
    monkeypatch.setenv(CAMPAIGN_DIR_ENV, str(registry_dir))
    config = ServerConfig(campaign_dir=str(registry_dir))
    with ServerThread(config) as handle:
        client = ServiceClient("127.0.0.1", handle.port)
        client.wait_ready(timeout=30.0)
        yield client, registry_dir
        client.close()


class TestDisabled:
    def test_endpoints_answer_503_without_campaign_dir(self):
        with ServerThread(ServerConfig()) as handle:
            client = ServiceClient("127.0.0.1", handle.port)
            try:
                client.wait_ready(timeout=30.0)
                with pytest.raises(ServiceError) as excinfo:
                    client.submit_campaign(DOC)
                assert excinfo.value.status == 503
                assert excinfo.value.code == "campaigns_disabled"
                with pytest.raises(ServiceError) as excinfo:
                    client.campaigns()
                assert excinfo.value.status == 503
            finally:
                client.close()


class TestEndpoints:
    def test_submit_runs_streams_and_matches_local(
        self, campaign_server, tmp_path
    ):
        client, registry_dir = campaign_server
        view = client.submit_campaign(DOC)
        assert view["created"] is True
        assert view["name"] == "svc"
        campaign_id = view["campaign"]
        done = client.wait_campaign(campaign_id[:12], timeout=120.0)
        assert done["progress"] == {
            "points": 4,
            "done": 4,
            "errors": 0,
            "excluded": 0,
            "pending": 0,
            "complete": True,
        }

        # Listing and status agree.
        listed = client.campaigns()
        assert [v["campaign"] for v in listed] == [campaign_id]

        # The results stream carries the registry's exact framing.
        records = list(client.campaign_results("svc"))
        assert records[0]["schema"] == "repro.campaign.results/1"
        assert records[-1]["done"] is True
        assert sorted(r["index"] for r in records[1:-1]) == [0, 1, 2, 3]

        # Unknown refs are a 404, not a stream.
        with pytest.raises(ServiceError) as excinfo:
            client.campaign_status("no-such-campaign")
        assert excinfo.value.status == 404

        # Byte-identity with the in-process executor, and the offline
        # validator's full pass.
        reference = _local_reference(tmp_path)
        assert reference.id == campaign_id
        server_campaign = CampaignRegistry(registry_dir).get(campaign_id)
        assert (
            server_campaign.results_path.read_bytes()
            == reference.results_path.read_bytes()
        )
        counts = validate_campaign_dir(server_campaign.dir)
        assert counts["done"] == 4

    def test_resubmit_of_complete_campaign_is_a_noop(self, campaign_server):
        client, _ = campaign_server
        first = client.submit_campaign(DOC)
        client.wait_campaign(first["campaign"], timeout=120.0)
        again = client.submit_campaign(DOC)
        assert again["created"] is False
        assert again["started"] is False
        assert again["progress"]["complete"] is True

    def test_invalid_spec_is_a_400(self, campaign_server):
        client, _ = campaign_server
        with pytest.raises(ServiceError) as excinfo:
            client.submit_campaign({"policies": ["NOPE"]})
        assert excinfo.value.status == 400

    def test_stats_and_metrics_carry_campaign_sections(self, campaign_server):
        client, registry_dir = campaign_server
        view = client.submit_campaign(DOC)
        client.wait_campaign(view["campaign"], timeout=120.0)
        stats = client.stats_envelope()
        assert stats["campaigns"]["campaigns"] == 1
        assert stats["campaigns"]["complete"] == 1
        assert stats["campaigns"]["directory"] == str(registry_dir)
        text = client.metrics_text()
        assert "repro_service_campaigns_registered 1" in text
        assert "repro_service_campaigns_complete 1" in text


class TestRestart:
    def test_drained_server_resumes_on_resubmit(self, tmp_path, monkeypatch):
        """Stop a server mid-campaign; a restarted server resumes from
        the checkpoint and converges on the same bytes as a local run."""
        registry_dir = tmp_path / "server-reg"
        monkeypatch.setenv(CAMPAIGN_DIR_ENV, str(registry_dir))
        doc = {
            **DOC,
            "caches": [
                {"total_bytes": 1 << n, "line_size": 32} for n in (10, 11, 12, 13)
            ],
            "memory_cycles": [4.0, 8.0, 16.0],
        }  # 12 points: wide enough to catch mid-run
        config = ServerConfig(campaign_dir=str(registry_dir))
        with ServerThread(config) as handle:
            client = ServiceClient("127.0.0.1", handle.port)
            client.wait_ready(timeout=30.0)
            view = client.submit_campaign(doc)
            campaign_id = view["campaign"]
            # Let at least one point land so the restart genuinely
            # resumes (rather than starting cold), then drain.
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                progress = client.campaign_status(campaign_id)["progress"]
                if progress["done"] >= 1:
                    break
                time.sleep(0.02)
            client.close()

        # The drain checkpointed: state on disk is loadable and sane.
        interrupted = CampaignRegistry(registry_dir).get(campaign_id)
        resumed_from = interrupted.progress()["done"]

        with ServerThread(config) as handle:
            client = ServiceClient("127.0.0.1", handle.port)
            try:
                client.wait_ready(timeout=30.0)
                # No auto-resume on boot: the campaign sits exactly
                # where the drain checkpointed it until the spec is
                # re-POSTed (same content address).
                booted = client.campaign_status(campaign_id)["progress"]
                assert booted["done"] == resumed_from
                again = client.submit_campaign(doc)
                assert again["created"] is False
                client.wait_campaign(campaign_id, timeout=120.0)
            finally:
                client.close()

        server_campaign = CampaignRegistry(registry_dir).get(campaign_id)
        assert server_campaign.progress()["done"] == 12
        assert resumed_from <= 12
        reference = _local_reference(tmp_path, doc)
        assert (
            server_campaign.results_path.read_bytes()
            == reference.results_path.read_bytes()
        )
        validate_campaign_dir(server_campaign.dir)
