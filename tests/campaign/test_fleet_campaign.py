"""A campaign on the fleet router, through a worker SIGKILL.

The router runs the campaign service (workers are spawned without a
campaign dir) and resolves each point by forwarding to the owning
worker; the supervisor's retry-through-restart must absorb a worker
killed mid-campaign without the campaign noticing.
"""

import os
import signal
import time

from repro.campaign.executor import run_campaign
from repro.campaign.registry import (
    CAMPAIGN_DIR_ENV,
    CampaignRegistry,
    validate_campaign_dir,
)
from repro.service import FleetConfig, FleetThread, ServerConfig, ServiceClient

DOC = {
    "name": "fleet-camp",
    "traces": [{"kind": "spec92", "name": "ear", "instructions": 2000}],
    "caches": [
        {"total_bytes": 1 << n, "line_size": 32} for n in (11, 12, 13, 14)
    ],
    "policies": ["FS", "BNL3"],
    "memory_cycles": [8.0, 16.0],
}  # 16 points, sharded across both workers by events key


def _assert_one_traced_forward_per_point(client):
    """One ``service.forward`` span under each ``campaign.point``, with
    a flow to the worker's ``service.request`` wherever the worker's
    ring still holds it (the SIGKILLed one lost its spans)."""
    deadline = time.monotonic() + 10.0
    while True:
        document = client.debug_trace()
        spans = [e for e in document["traceEvents"] if e.get("ph") == "X"]
        points = {
            e["args"]["span_id"]
            for e in spans
            if e["name"] == "campaign.point" and e["pid"] == 0
        }
        forwards = {
            e["args"]["span_id"]: e
            for e in spans
            if e["name"] == "service.forward"
            and e["args"].get("parent_span_id") in points
        }
        requests = [
            e
            for e in spans
            if e["name"] == "service.request"
            and e["pid"] >= 1
            and e["args"].get("parent_span_id") in forwards
        ]
        if (len(points) == 16 and requests) or time.monotonic() > deadline:
            break
        time.sleep(0.1)
    assert len(points) == 16
    assert len(forwards) == 16
    assert requests, "no worker span names a campaign forward as parent"
    finishes = {
        (e["id"], e["pid"], e["ts"])
        for e in document["traceEvents"]
        if e.get("cat") == "repro.flow" and e["ph"] == "f"
    }
    for request in requests:
        key = (request["args"]["parent_span_id"], request["pid"], request["ts"])
        assert key in finishes


def test_campaign_survives_a_worker_sigkill(tmp_path, monkeypatch):
    registry_dir = tmp_path / "router-reg"
    monkeypatch.setenv(CAMPAIGN_DIR_ENV, str(registry_dir))
    config = FleetConfig(
        base=ServerConfig(campaign_dir=str(registry_dir)),
        workers=2,
    )
    with FleetThread(config) as handle:
        client = ServiceClient("127.0.0.1", handle.port)
        try:
            client.wait_ready(timeout=30.0)
            victim_pid = client.stats_envelope()["fleet"]["workers"]["w0"][
                "pid"
            ]
            view = client.submit_campaign(DOC)
            campaign_id = view["campaign"]
            os.kill(victim_pid, signal.SIGKILL)
            done = client.wait_campaign(campaign_id, timeout=180.0)
            assert done["progress"]["complete"] is True
            assert done["progress"]["errors"] == 0
            # The supervisor restored the slot along the way.
            workers = client.stats_envelope()["fleet"]["workers"]
            assert workers["w0"]["alive"] is True
            assert workers["w0"]["pid"] != victim_pid
            # Results stream all 16 points through the router.
            records = list(client.campaign_results("fleet-camp"))
            assert sorted(r["index"] for r in records[1:-1]) == list(
                range(16)
            )
            assert records[-1]["done"] is True
            # Campaign forwards share the interactive forward path: each
            # point is timed and traced like a /v1/simulate.
            forwarded = client.stats_envelope()["fleet"]["forward_latency_ms"]
            assert sum(w["count"] for w in forwarded["workers"].values()) == 16
            _assert_one_traced_forward_per_point(client)
        finally:
            client.close()

    # The registry the router wrote is valid and byte-identical to an
    # in-process run of the same spec — worker death and all.
    server_campaign = CampaignRegistry(registry_dir).find("fleet-camp")
    validate_campaign_dir(server_campaign.dir)
    local = CampaignRegistry(tmp_path / "local-ref")
    reference, _ = local.submit(DOC)
    assert run_campaign(reference)["progress"]["complete"]
    assert (
        server_campaign.results_path.read_bytes()
        == reference.results_path.read_bytes()
    )
