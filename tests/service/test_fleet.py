"""The sharded fleet over real processes: identity, restart, merging.

One module-scoped 2-worker fleet serves most tests (worker spawn is the
expensive part); the restart test deliberately SIGKILLs a worker and
runs last-ish but is order-independent — the supervisor restores the
slot either way.
"""

import asyncio
import dataclasses
import gc
import json
import os
import signal
import socket
import threading
import time
import warnings

import pytest

from repro.cache.cache import CacheConfig
from repro.core.stalling import StallPolicy
from repro.cpu.replay import simulate
from repro.memory.mainmem import MainMemory
from repro.obs.schemas import validate_chrome_trace, validate_sweep_stream
from repro.service import (
    FleetConfig,
    FleetThread,
    RouterServer,
    ServerConfig,
    ServerThread,
    ServiceClient,
    ServiceError,
)
from repro.service import queries
from repro.service import schemas as request_schemas
from repro.service.queries import timing_result_dict
from repro.service.router import SWEEP_RESUME_LIMIT, WorkerHandle
from repro.trace.spec92 import spec92_trace
from repro.util.jsonout import dump_json

TRACE = {"kind": "spec92", "name": "ear", "instructions": 2000, "seed": 13}
CACHES = [
    {"total_bytes": 4096, "line_size": 32, "associativity": 1},
    {"total_bytes": 8192, "line_size": 32, "associativity": 2},
    {"total_bytes": 16384, "line_size": 32, "associativity": 2},
]


@pytest.fixture(scope="module")
def fleet(tmp_path_factory):
    # Non-default fields the workers must inherit from the router.
    base = ServerConfig(
        profile_max_seconds=0.5,
        span_spool_dir=str(tmp_path_factory.mktemp("fleet-spans")),
    )
    config = FleetConfig(base=base, workers=2)
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


SWEEP = dict(
    trace=TRACE,
    caches=CACHES,
    policies=["FS", "BNL3"],
    memory_cycles=[8.0, 16.0],
)


def _cut_worker_streams(fleet, worker, after, times):
    """``fleet.stream`` with ``worker``'s next ``times`` sub-streams
    failing after ``after`` point records, as a dropped connection
    would."""
    original = fleet.stream

    async def stream(name, method, path, body):
        nonlocal times
        records = original(name, method, path, body)
        try:
            points = 0
            async for record in records:
                if name == worker and times and "index" in record:
                    if points == after:
                        times -= 1
                        raise ConnectionResetError("stream cut by the test")
                    points += 1
                yield record
        finally:
            await records.aclose()

    return stream


class TestSweepResume:
    """The router's sub-stream resume, driven by injected stream cuts."""

    def _victim(self, handle):
        """The first worker by name and the global indices it owns."""
        validated = request_schemas.validate_sweep(SWEEP)
        owned = handle.server.app._assignments(validated)
        worker = min(owned)
        per = len(SWEEP["policies"]) * len(SWEEP["memory_cycles"])
        return worker, {
            cache * per + rem for cache in owned[worker] for rem in range(per)
        }

    def _resumes(self, handle, worker):
        counters = handle.server.registry.snapshot()["counters"]
        key = f"service.router.sweep_resumes{{worker={worker}}}"
        return counters.get(key, 0)

    def test_cut_stream_resumes_to_the_one_process_answer(
        self, fleet, monkeypatch
    ):
        handle, client = fleet
        worker, _owned = self._victim(handle)
        cut = _cut_worker_streams(handle.server.fleet, worker, after=2, times=1)
        monkeypatch.setattr(handle.server.fleet, "stream", cut)
        before = self._resumes(handle, worker)
        records = list(client.sweep(**SWEEP))
        validate_sweep_stream(records)
        assert self._resumes(handle, worker) - before == 1
        points = records[1:-1]
        assert sorted(r["index"] for r in points) == list(range(12))
        assert not [r for r in points if "error" in r]
        with ServerThread() as single:
            with ServiceClient("127.0.0.1", single.port) as one:
                expected = list(one.sweep(**SWEEP))[1:-1]
        assert {r["index"]: dump_json(r["result"]) for r in points} == {
            r["index"]: dump_json(r["result"]) for r in expected
        }

    def test_undelivered_points_become_502_lines(self, fleet, monkeypatch):
        handle, client = fleet
        worker, owned = self._victim(handle)
        cut = _cut_worker_streams(
            handle.server.fleet, worker, after=1, times=1 + SWEEP_RESUME_LIMIT
        )
        monkeypatch.setattr(handle.server.fleet, "stream", cut)
        records = list(client.sweep(**SWEEP))
        validate_sweep_stream(records)
        points = records[1:-1]
        assert sorted(r["index"] for r in points) == list(range(12))
        delivered = {r["index"] for r in points if "result" in r}
        failed = {r["index"]: r["error"] for r in points if "error" in r}
        assert len(owned - delivered) == len(owned) - 1
        assert set(failed) == owned - delivered
        assert records[-1]["errors"] == len(failed)
        for error in failed.values():
            assert error == {
                "code": "bad_upstream",
                "message": f"shard {worker} did not deliver this point",
                "status": 502,
            }


class TestOneConfig:
    def test_worker_config_is_the_routers_exactly(self):
        """No field is dropped or rounded on its way to a worker: a
        byte budget stays exact and a disabled keep-alive stays off."""
        base = ServerConfig(
            port=8472,
            result_cache_bytes=1_000_000,
            keepalive_timeout_s=None,
            access_log_path="logs/access.jsonl",
            span_spool_dir="spans",
            campaign_dir="campaigns",
        )
        command = WorkerHandle("w1", base)._command()
        doc = json.loads(command[command.index("--worker-config") + 1])
        assert ServerConfig(**doc) == dataclasses.replace(
            base,
            host="127.0.0.1",
            port=0,
            worker_id="w1",
            campaign_dir=None,
            access_log_path="logs/access.jsonl.w1",
            span_spool_dir=os.path.join("spans", "w1"),
        )

    def test_workers_inherit_the_routers_profile_cap(self, fleet):
        """The router's whole config reaches each worker: a window over
        the 0.5 s cap is refused by the worker itself."""
        _, client = fleet
        workers = client.stats_envelope()["fleet"]["workers"]
        for info in workers.values():
            with ServiceClient("127.0.0.1", info["port"]) as worker:
                with pytest.raises(ServiceError) as excinfo:
                    worker.request("GET", "/v1/debug/profile?seconds=0.75")
            assert excinfo.value.status == 400
            assert excinfo.value.code == "bad_query"


class TestFailedStart:
    def test_busy_port_leaves_no_worker_running(self):
        """A router that cannot bind stops the workers it spawned
        instead of leaving them re-parented to init."""
        with socket.socket() as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen(1)
            config = FleetConfig(
                base=ServerConfig(port=busy.getsockname()[1])
            )
            server = RouterServer(config)
            try:
                with pytest.raises(OSError):
                    asyncio.run(server.start())
                assert not any(
                    handle.alive for handle in server.fleet.workers.values()
                )
            finally:
                asyncio.run(server.fleet.stop())


class TestTeardown:
    def test_stop_reaps_workers_under_asyncio_debug(self, monkeypatch):
        """Stopping a fleet leaves no worker running and nothing
        unclosed, with asyncio's debug checks on: they reject a stream
        writer closed from a thread other than its loop's."""
        monkeypatch.setenv("PYTHONASYNCIODEBUG", "1")
        thread_errors = []
        monkeypatch.setattr(
            threading, "excepthook", lambda args: thread_errors.append(args)
        )
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            handle = FleetThread(FleetConfig(workers=2)).start()
            processes = [
                worker.process for worker in handle.server.fleet.workers.values()
            ]
            try:
                client = ServiceClient("127.0.0.1", handle.port)
                # Pools a connection to each worker, so stop() has
                # writers to close.
                client.simulate(trace=TRACE, memory_cycle=8.0)
                client.stats_envelope()
                client.close()
                handle.stop()
                running = [p.pid for p in processes if p.poll() is None]
            finally:
                for process in processes:
                    if process.poll() is None:
                        process.kill()
                        process.wait(timeout=10.0)
            del handle, processes
            gc.collect()
        assert running == []
        assert [args.exc_value for args in thread_errors] == []
        assert [
            str(w.message) for w in caught if issubclass(w.category, ResourceWarning)
        ] == []


class TestWedgedWorker:
    def test_stopped_worker_costs_a_deadline_not_the_router(self, fleet):
        """A SIGSTOPped worker: a simulate it owns answers 504 at the
        request's deadline, and the merged stats report it unreachable
        after the scrape bound while the other worker still answers."""
        handle, _ = fleet
        ring = handle.server.fleet.ring

        def owner(trace):
            validated = request_schemas.validate_simulate({"trace": trace})
            return ring.owner(queries.events_key_of(validated))

        trace = next(
            t
            for t in (
                {**TRACE, "seed": seed} for seed in range(1000, 1100)
            )
            if owner(t) == "w0"
        )
        victim = handle.server.fleet.workers["w0"].pid
        client = ServiceClient("127.0.0.1", handle.port, timeout=12.0)
        os.kill(victim, signal.SIGSTOP)
        try:
            started = time.monotonic()
            with pytest.raises(ServiceError) as excinfo:
                client.simulate(trace=trace, memory_cycle=8.0, deadline_ms=500)
            assert excinfo.value.status == 504
            assert excinfo.value.code == "deadline_exceeded"
            assert time.monotonic() - started < 5.0
            workers = client.stats_envelope()["fleet"]["workers"]
            assert workers["w0"]["reachable"] is False
            assert workers["w1"]["reachable"] is True
        finally:
            os.kill(victim, signal.SIGCONT)
            client.close()


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

    def test_stats_carries_the_routers_own_span_spool(self, fleet):
        _, client = fleet
        spool = client.stats_envelope()["span_spool"]
        assert os.path.basename(spool["directory"]) == "router"
        assert spool["appended"] > 0

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
