"""``--via-service``: the campaign executor driving a running server.

Every test byte-compares ``results.jsonl`` with an in-process run of the
same spec, on one server process and on a 2-worker fleet.  Cut
connections and truncated streams are injected by a client wrapper, so
each recovery is deterministic: the executor must re-plan its pending
points from the campaign's own state and converge on the same bytes.
"""

import http.client
import shutil

import pytest

from repro.campaign.executor import REPLAN_LIMIT, run_campaign
from repro.campaign.registry import CampaignRegistry
from repro.service import (
    FleetConfig,
    FleetThread,
    ServerThread,
    ServiceClient,
    ServiceError,
)

DOC = {
    "name": "via-service",
    "traces": [{"kind": "spec92", "name": "ear", "instructions": 600}],
    "caches": [
        {"total_bytes": 1024, "line_size": 32},
        {"total_bytes": 4096, "line_size": 32, "associativity": 2},
        {"total_bytes": 8192, "line_size": 32, "associativity": 2},
    ],
    "policies": ["FS", "BNL3"],
    "memory_cycles": [4.0, 8.0],
    "exclude": [{"cache_index": 1, "policy": "FS", "memory_cycle": 8.0}],
}
# 12 points, 1 excluded: columns 0 and 2 sweep as one stream, column 1's
# three pending points go through /v1/simulate.


def reset():
    return ConnectionResetError("connection cut by the test")


def torn():
    return http.client.IncompleteRead(b"")


def truncated():
    return ServiceError(0, "truncated", "sweep stream ended early")


class CuttingClient:
    """A :class:`ServiceClient` whose sweeps fail as a dropped
    connection would: sweep *n* raises ``cuts[n][1]()`` after
    ``cuts[n][0]`` point records; sweeps past the list run whole."""

    def __init__(self, client, cuts):
        self.client = client
        self.cuts = cuts
        self.sweeps = 0

    def sweep(self, **params):
        self.sweeps += 1
        records = self.client.sweep(**params)
        if self.sweeps > len(self.cuts):
            yield from records
            return
        after, error = self.cuts[self.sweeps - 1]
        points = 0
        for record in records:
            if "index" in record:
                if points == after:
                    records.close()
                    raise error()
                points += 1
            yield record

    def simulate(self, **params):
        return self.client.simulate(**params)


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    registry = CampaignRegistry(tmp_path_factory.mktemp("local-ref"))
    campaign, _ = registry.submit(DOC)
    report = run_campaign(campaign)
    assert report["progress"]["complete"]
    assert report["simulated"] == 11
    return campaign


@pytest.fixture(scope="module", params=["server", "fleet"])
def service(request):
    harness = (
        ServerThread()
        if request.param == "server"
        else FleetThread(FleetConfig(workers=2))
    )
    with harness as handle:
        client = ServiceClient("127.0.0.1", handle.port)
        client.wait_ready(timeout=60.0)
        yield client
        client.close()


def _run(tmp_path, client):
    campaign, _ = CampaignRegistry(tmp_path / "reg").submit(DOC)
    return campaign, run_campaign(campaign, chunk_size=4, client=client)


class TestByteIdentity:
    def test_matches_the_local_run(self, service, reference, tmp_path):
        campaign, report = _run(tmp_path, service)
        assert report["progress"]["complete"]
        assert report["errors"] == 0
        assert report["simulated"] == 11
        assert (
            campaign.results_path.read_bytes()
            == reference.results_path.read_bytes()
        )

    @pytest.mark.parametrize(
        "after, error",
        [(0, reset), (1, torn), (3, truncated)],
        ids=["after-0", "after-1", "after-3"],
    )
    def test_cut_sweep_is_replanned(
        self, service, reference, tmp_path, after, error
    ):
        client = CuttingClient(service, [(after, error)])
        campaign, report = _run(tmp_path, client)
        assert report["progress"]["complete"]
        assert report["errors"] == 0
        assert report["simulated"] == 11
        assert (
            campaign.results_path.read_bytes()
            == reference.results_path.read_bytes()
        )

    def test_stored_artifacts_are_adopted(self, reference, tmp_path):
        """A run killed after storing its artifacts but before its
        checkpoint sends nothing when resumed through a service."""

        class Unreachable:
            def sweep(self, **params):
                raise AssertionError("adopted points were re-requested")

            simulate = sweep

        campaign, _ = CampaignRegistry(tmp_path / "reg").submit(DOC)
        shutil.rmtree(campaign.artifacts_dir)
        shutil.copytree(reference.artifacts_dir, campaign.artifacts_dir)
        report = run_campaign(campaign, client=Unreachable())
        assert report["reused"] == 11
        assert report["simulated"] == 0
        assert (
            campaign.results_path.read_bytes()
            == reference.results_path.read_bytes()
        )


class TestReplanBound:
    def test_cuts_that_settle_nothing_raise(self, service, tmp_path):
        client = CuttingClient(service, [(0, reset)] * (REPLAN_LIMIT + 1))
        with pytest.raises(ConnectionResetError):
            _run(tmp_path, client)
        assert client.sweeps == REPLAN_LIMIT + 1
        campaign = CampaignRegistry(tmp_path / "reg").find("via-service")
        assert campaign.progress()["done"] == 0

    def test_a_settled_point_restarts_the_count(
        self, service, reference, tmp_path
    ):
        """Two idle cuts, one that settles a point, one more idle cut:
        four cuts, never more than the bound in a row."""
        client = CuttingClient(
            service, [(0, reset), (0, torn), (1, truncated), (0, reset)]
        )
        campaign, report = _run(tmp_path, client)
        assert report["progress"]["complete"]
        assert client.sweeps == 5
        assert (
            campaign.results_path.read_bytes()
            == reference.results_path.read_bytes()
        )

    def test_server_verdict_is_not_retried(self, service, tmp_path):
        class Draining(CuttingClient):
            def sweep(self, **params):
                self.sweeps += 1
                raise ServiceError(503, "draining", "server is draining")

        client = Draining(service, [])
        with pytest.raises(ServiceError) as excinfo:
            _run(tmp_path, client)
        assert excinfo.value.status == 503
        assert client.sweeps == 1
