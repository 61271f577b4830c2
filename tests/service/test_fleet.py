"""The sharded fleet over real processes: identity, restart, merging.

One module-scoped 2-worker fleet serves most tests (worker spawn is the
expensive part); the restart test deliberately SIGKILLs a worker and
runs last-ish but is order-independent — the supervisor restores the
slot either way.
"""

import json
import os
import signal
import time

import pytest

from repro.cache.cache import CacheConfig
from repro.core.stalling import StallPolicy
from repro.cpu.replay import simulate
from repro.memory.mainmem import MainMemory
from repro.obs.schemas import validate_chrome_trace, validate_sweep_stream
from repro.service import (
    FleetConfig,
    FleetThread,
    ServerConfig,
    ServerThread,
    ServiceClient,
)
from repro.service.queries import timing_result_dict
from repro.trace.spec92 import spec92_trace
from repro.util.jsonout import dump_json

TRACE = {"kind": "spec92", "name": "ear", "instructions": 2000, "seed": 13}
CACHES = [
    {"total_bytes": 4096, "line_size": 32, "associativity": 1},
    {"total_bytes": 8192, "line_size": 32, "associativity": 2},
    {"total_bytes": 16384, "line_size": 32, "associativity": 2},
]


@pytest.fixture(scope="module")
def fleet():
    config = FleetConfig(base=ServerConfig(), workers=2)
    with FleetThread(config) as handle:
        client = ServiceClient("127.0.0.1", handle.port)
        client.wait_ready(timeout=30.0)
        yield handle, client
        client.close()


class TestForwarding:
    def test_result_byte_identical_to_direct_simulate(self, fleet):
        """The acceptance pin: a fleet-served result is byte-for-byte
        the single-engine serialization, whichever worker computed it."""
        _, client = fleet
        for cache in CACHES:
            envelope = client.simulate(
                trace=TRACE, cache=cache, policy="FS", memory_cycle=8.0
            )
            direct = simulate(
                spec92_trace("ear", 2000, seed=13),
                CacheConfig(
                    cache["total_bytes"],
                    cache["line_size"],
                    cache["associativity"],
                ),
                MainMemory(8.0, 4),
                policy=StallPolicy.FULL_STALL,
            )
            expected = dump_json(timing_result_dict(direct, "replay")).encode()
            assert dump_json(envelope["result"]).encode() == expected

    def test_repeat_hits_the_owning_workers_cache(self, fleet):
        _, client = fleet
        params = dict(trace=TRACE, policy="BNL3", memory_cycle=16.0)
        cold = client.simulate(**params)
        warm = client.simulate(**params)
        assert cold["cached"] is False
        assert warm["cached"] is True
        assert dump_json(cold["result"]) == dump_json(warm["result"])

    def test_error_envelopes_relay_verbatim(self, fleet):
        """A worker's structured error passes through the router
        unchanged (here: a deadline the worker cannot meet)."""
        from repro.service import ServiceError

        _, client = fleet
        with pytest.raises(ServiceError) as excinfo:
            client.simulate(trace={"kind": "matmul", "n": 48}, deadline_ms=1.0)
        assert excinfo.value.status == 504
        assert excinfo.value.code == "deadline_exceeded"


class TestShardedSweep:
    def test_sweep_multiplexes_shards_into_one_valid_stream(self, fleet):
        _, client = fleet
        records = list(
            client.sweep(
                trace=TRACE,
                caches=CACHES,
                policies=["FS", "BNL3"],
                memory_cycles=[8.0, 16.0],
            )
        )
        validate_sweep_stream(records)
        assert records[0]["points"] == 12
        assert records[-1] == {"done": True, "errors": 0, "points": 12}
        by_index = {r["index"]: r for r in records[1:-1]}
        assert sorted(by_index) == list(range(12))
        # Cross-check a few points against the simulate endpoint.
        for index in (0, 5, 11):
            point = by_index[index]["point"]
            envelope = client.simulate(
                trace=TRACE,
                cache=point["cache"],
                policy=point["policy"],
                memory_cycle=point["memory_cycle"],
            )
            assert dump_json(by_index[index]["result"]) == dump_json(
                envelope["result"]
            )


class TestMergedObservability:
    def test_stats_carries_the_fleet_section(self, fleet):
        _, client = fleet
        client.simulate(trace=TRACE, memory_cycle=24.0)
        stats = client.stats_envelope()
        workers = stats["fleet"]["workers"]
        assert sorted(workers) == ["w0", "w1"]
        for info in workers.values():
            assert info["alive"] is True
            assert info["reachable"] is True
            assert isinstance(info["pid"], int)
        forwarded = stats["fleet"]["forward_latency_ms"]
        assert forwarded["p99_ms"] >= forwarded["p50_ms"] >= 0.0

    def test_worker_counters_are_labelled_not_summed(self, fleet):
        _, client = fleet
        client.simulate(trace=TRACE, memory_cycle=32.0)
        counters = client.stats_envelope()["counters"]
        worker_keys = [k for k in counters if "worker=w" in k]
        assert worker_keys, f"no worker-labelled counters in {list(counters)[:8]}"
        assert any(k.startswith("service.requests") for k in worker_keys)
        assert any(
            k.startswith("service.router.forwarded") for k in counters
        )

    def test_metrics_exposes_fleet_gauges(self, fleet):
        _, client = fleet
        text = client.metrics_text()
        assert "repro_fleet_workers 2" in text
        assert "repro_fleet_workers_alive" in text


class TestDistributedTracing:
    # Spans land in the rings asynchronously to the response (the
    # worker's ingress span closes after its body is written), so the
    # merged document is polled briefly before asserting on it.
    def _traced_tree(self, client, memory_cycle, seed=13):
        trace = dict(TRACE, seed=seed)
        envelope = client.simulate(trace=trace, memory_cycle=memory_cycle)
        assert envelope["result"]["cycles"] > 0
        trace_id = client.last_trace_id
        assert trace_id and len(trace_id) == 32
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            document = client.debug_trace(trace_id=trace_id)
            spans = [
                e for e in document["traceEvents"] if e.get("ph") == "X"
            ]
            has_forward = any(
                e["name"] == "service.forward" and e["pid"] == 0
                for e in spans
            )
            if has_forward and any(e["pid"] >= 1 for e in spans):
                return trace_id, document, spans
            time.sleep(0.1)
        pytest.fail("merged trace never assembled router and worker spans")

    def test_forwarded_request_produces_one_stitched_trace(self, fleet):
        """The acceptance pin: one forwarded request, one merged
        Perfetto document with the router's forward span fathering the
        worker's spans, flow events stitching the edge."""
        _, client = fleet
        trace_id, document, spans = self._traced_tree(client, 18.5)
        validate_chrome_trace(document)
        assert all(e["args"]["trace_id"] == trace_id for e in spans)
        assert all(e["ts"] >= 0.0 for e in spans)
        (forward,) = [e for e in spans if e["name"] == "service.forward"]
        children = [
            e
            for e in spans
            if e["pid"] >= 1
            and e["args"].get("parent_span_id") == forward["args"]["span_id"]
        ]
        assert children, "no worker span names the forward span as parent"
        assert {e["name"] for e in children} == {"service.request"}
        # The flow pair rides the forward span's id from pid 0 to the
        # worker's track.
        flows = [
            e
            for e in document["traceEvents"]
            if e.get("cat") == "repro.flow"
            and e["id"] == forward["args"]["span_id"]
        ]
        assert {e["ph"] for e in flows} == {"s", "f"}
        assert {e["pid"] for e in flows if e["ph"] == "s"} == {0}
        assert all(e["pid"] >= 1 for e in flows if e["ph"] == "f")
        # Both workers are first-class fleet members in the document.
        assert sorted(document["fleet"]) == ["w0", "w1"]
        assert all(m["reachable"] for m in document["fleet"].values())

    def test_respawned_worker_realigns_into_the_timeline(self, fleet):
        """Satellite pin: after SIGKILL + respawn, the fresh monotonic
        epoch is re-handshaken, so the new worker's spans still nest
        inside their forward spans instead of landing seconds away."""
        _, client = fleet
        stats = client.stats_envelope()
        victim_pid = stats["fleet"]["workers"]["w1"]["pid"]
        base_restarts = stats["fleet"]["restarts"]
        os.kill(victim_pid, signal.SIGKILL)
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            fleet_stats = client.stats_envelope()["fleet"]
            w1 = fleet_stats["workers"]["w1"]
            if (
                w1["alive"]
                and w1["pid"] != victim_pid
                and fleet_stats["restarts"] > base_restarts
            ):
                break
            time.sleep(0.2)
        else:
            pytest.fail("worker w1 was not respawned within 30s")

        # Every post-respawn tree nests: a worker span starts after its
        # forward span opened and ends before it closed, within the
        # handshake's error budget (generous here; an uncorrected fresh
        # epoch would be off by whole seconds).
        slack_us = 250_000.0
        saw_respawned = False
        for step in range(16):
            # Fresh seeds give well-spread cache keys, so the ring
            # shards some of these onto the respawned slot.
            trace_id, document, spans = self._traced_tree(
                client, 40.0, seed=100 + step
            )
            (forward,) = [
                e for e in spans if e["name"] == "service.forward"
            ]
            workers = [e for e in spans if e["pid"] >= 1]
            assert workers
            respawned_pid = document["fleet"]["w1"]["pid"]
            for event in workers:
                assert event["dur"] >= 0.0
                assert event["ts"] >= forward["ts"] - slack_us
                assert (
                    event["ts"] + event["dur"]
                    <= forward["ts"] + forward["dur"] + slack_us
                )
                if event["pid"] == respawned_pid:
                    saw_respawned = True
            if saw_respawned:
                break
        assert saw_respawned, "no request ever sharded to the respawned worker"
        # The full merged timeline stays Perfetto-clean: normalised to
        # ts 0, no negative timestamps or durations anywhere.
        document = client.debug_trace()
        validate_chrome_trace(document)
        timed = [
            e for e in document["traceEvents"] if e.get("ph") in ("X", "s", "f")
        ]
        assert timed
        assert all(e["ts"] >= 0.0 for e in timed)
        assert all(e["dur"] >= 0.0 for e in timed if e["ph"] == "X")
        assert min(e["ts"] for e in timed) == 0.0


class TestWorkerRestart:
    def test_killed_worker_is_respawned_into_its_slot(self, fleet):
        _, client = fleet
        stats = client.stats_envelope()
        victim_pid = stats["fleet"]["workers"]["w0"]["pid"]
        base_restarts = stats["fleet"]["restarts"]
        os.kill(victim_pid, signal.SIGKILL)
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline:
            fleet_stats = client.stats_envelope()["fleet"]
            w0 = fleet_stats["workers"]["w0"]
            if (
                w0["alive"]
                and w0["pid"] != victim_pid
                and fleet_stats["restarts"] > base_restarts
            ):
                break
            time.sleep(0.2)
        else:
            pytest.fail("worker w0 was not respawned within 30s")
        # The slot re-owns its range: requests keep working and results
        # stay byte-identical to the pre-kill serialization.
        envelope = client.simulate(
            trace=TRACE, cache=CACHES[0], policy="FS", memory_cycle=8.0
        )
        direct = simulate(
            spec92_trace("ear", 2000, seed=13),
            CacheConfig(4096, 32, 1),
            MainMemory(8.0, 4),
            policy=StallPolicy.FULL_STALL,
        )
        assert dump_json(envelope["result"]) == dump_json(
            timing_result_dict(direct, "replay")
        )


class TestWarmBoot:
    def test_cold_restart_serves_from_the_disk_cache(
        self, tmp_path, monkeypatch
    ):
        """The disk tier outlives the process: a brand-new server over
        the same directory answers the very first request cached, with
        identical result bytes."""
        from repro.service.disk_cache import RESULT_CACHE_DIR_ENV

        monkeypatch.setenv(RESULT_CACHE_DIR_ENV, str(tmp_path))
        params = dict(trace=TRACE, policy="BL", memory_cycle=12.0)
        config = ServerConfig(disk_cache_dir=str(tmp_path))
        with ServerThread(config) as first:
            client = ServiceClient("127.0.0.1", first.port)
            client.wait_ready()
            cold = client.simulate(**params)
            assert cold["cached"] is False
            client.close()
        with ServerThread(config) as second:
            client = ServiceClient("127.0.0.1", second.port)
            client.wait_ready()
            warm = client.simulate(**params)
            client.close()
        assert warm["cached"] is True
        assert dump_json(warm["result"]) == dump_json(cold["result"])

    def test_kill_switch_forces_recompute(self, tmp_path, monkeypatch):
        from repro.service.disk_cache import (
            RESULT_CACHE_DIR_ENV,
            RESULT_CACHE_ENV,
        )

        monkeypatch.setenv(RESULT_CACHE_DIR_ENV, str(tmp_path))
        params = dict(trace=TRACE, policy="FS", memory_cycle=48.0)
        config = ServerConfig(disk_cache_dir=str(tmp_path))
        with ServerThread(config) as first:
            client = ServiceClient("127.0.0.1", first.port)
            client.wait_ready()
            cold = client.simulate(**params)
            client.close()
        monkeypatch.setenv(RESULT_CACHE_ENV, "0")
        with ServerThread(config) as second:
            client = ServiceClient("127.0.0.1", second.port)
            client.wait_ready()
            recomputed = client.simulate(**params)
            client.close()
        assert recomputed["cached"] is False
        assert dump_json(recomputed["result"]) == dump_json(cold["result"])
