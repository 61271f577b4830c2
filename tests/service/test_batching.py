"""The micro-batch scheduler, exercised with injected compute."""

import asyncio
import threading

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.service.batching import EventsMemo, MicroBatcher, QueueFullError
from tests.service.conftest import Phase1Gate


class Recorder:
    """Injected phase-1/phase-2 with call accounting."""

    def __init__(self) -> None:
        self.resolved: list[str] = []
        self.computed: list[dict] = []

    def resolve(self, params):
        self.resolved.append(params["key"])
        return f"events:{params['key']}"

    def compute(self, params, events):
        assert events == f"events:{params['key']}"
        self.computed.append(params)
        return {"key": params["key"], "value": params["value"]}


def make_batcher(recorder, registry=None, **kwargs):
    registry = registry or MetricsRegistry()
    kwargs.setdefault("resolve_events", recorder.resolve)
    batcher = MicroBatcher(registry, compute=recorder.compute, **kwargs)
    # The scheduler groups on the real events key in production; tests
    # inject a trivial key function via params["key"].
    return batcher, registry


@pytest.fixture(autouse=True)
def _key_by_param(monkeypatch):
    from repro.service import batching

    monkeypatch.setattr(
        batching.queries, "events_key_of", lambda params: params["key"]
    )
    # Trace-alone key for the second-level grouping; defaults to the
    # events key so tests that don't care see one trace per group.
    monkeypatch.setattr(
        batching.queries,
        "trace_key_of",
        lambda params: params.get("trace", params["key"]),
    )


class TestCoalescing:
    def test_concurrent_same_key_resolve_once(self):
        recorder = Recorder()

        async def run():
            batcher, registry = make_batcher(recorder)
            batcher.start()
            results = await asyncio.gather(
                *(
                    batcher.submit({"key": "shared", "value": i})
                    for i in range(8)
                )
            )
            await batcher.drain()
            return results, registry

        results, registry = asyncio.run(run())
        assert [r["value"] for r in results] == list(range(8))
        assert recorder.resolved == ["shared"]  # phase 1 exactly once
        assert len(recorder.computed) == 8  # phase 2 per request
        counters = registry.snapshot()["counters"]
        assert counters["service.phase1.resolves"] == 1
        assert counters["service.batch.requests"] == 8
        assert counters["service.batch.groups"] == 1
        assert counters["service.batch.coalesced"] == 7

    def test_distinct_keys_resolve_separately(self):
        recorder = Recorder()

        async def run():
            batcher, registry = make_batcher(recorder)
            batcher.start()
            await asyncio.gather(
                batcher.submit({"key": "a", "value": 1}),
                batcher.submit({"key": "b", "value": 2}),
            )
            await batcher.drain()
            return registry

        registry = asyncio.run(run())
        assert sorted(recorder.resolved) == ["a", "b"]
        counters = registry.snapshot()["counters"]
        assert counters["service.batch.groups"] == 2

    def test_memo_carries_across_batches(self):
        recorder = Recorder()

        async def run():
            batcher, registry = make_batcher(recorder)
            batcher.start()
            await batcher.submit({"key": "hot", "value": 1})
            await batcher.submit({"key": "hot", "value": 2})
            await batcher.drain()
            return registry

        registry = asyncio.run(run())
        assert recorder.resolved == ["hot"]  # second batch hit the memo
        counters = registry.snapshot()["counters"]
        assert counters["service.events_memo.hit"] == 1
        assert counters["service.events_memo.miss"] == 1


class TestWorkConserving:
    def test_lone_submit_is_handed_over_without_a_timer(self, monkeypatch):
        recorder = Recorder()
        threads: list[str] = []
        timers: list[float] = []
        real_sleep = asyncio.sleep

        def resolve(params):
            threads.append(threading.current_thread().name)
            return recorder.resolve(params)

        async def timed_sleep(delay, result=None):
            timers.append(delay)
            return await real_sleep(delay, result)

        async def run():
            batcher, registry = make_batcher(recorder, resolve_events=resolve)
            batcher.start()
            monkeypatch.setattr(asyncio, "sleep", timed_sleep)
            result = await batcher.submit({"key": "k", "value": 1})
            await batcher.drain()
            return result, registry

        result, registry = asyncio.run(run())
        assert result == {"key": "k", "value": 1}
        assert timers == []  # no batch window on the way in
        assert len(threads) == 1 and threads[0].startswith("repro-batch")
        assert registry.snapshot()["counters"]["service.batch.batches"] == 1

    def test_arrivals_during_a_batch_form_the_next_one(self):
        recorder = Recorder()
        gate = Phase1Gate(recorder.resolve)

        async def run():
            batcher, registry = make_batcher(recorder, resolve_events=gate)
            batcher.start()
            first = asyncio.ensure_future(
                batcher.submit({"key": "k", "value": 0})
            )
            assert await asyncio.to_thread(gate.entered.wait, 10.0)
            # Three more for the same key arrive while the first computes.
            rest = [
                asyncio.ensure_future(batcher.submit({"key": "k", "value": i}))
                for i in (1, 2, 3)
            ]
            await asyncio.sleep(0)
            assert batcher.queue_depth == 4
            gate.release()
            results = await asyncio.gather(first, *rest)
            await batcher.drain()
            return results, registry

        results, registry = asyncio.run(run())
        assert [r["value"] for r in results] == [0, 1, 2, 3]
        assert recorder.resolved == ["k"]
        counters = registry.snapshot()["counters"]
        assert counters["service.batch.batches"] == 2
        assert counters["service.batch.coalesced"] == 2
        assert counters["service.phase1.resolves"] == 1
        assert counters["service.events_memo.hit"] == 1


class TestTraceCoalescing:
    def test_geometry_fan_counts_one_trace_group(self):
        recorder = Recorder()

        async def run():
            batcher, registry = make_batcher(recorder)
            batcher.start()
            await asyncio.gather(
                batcher.submit({"key": "t/g1", "trace": "t", "value": 1}),
                batcher.submit({"key": "t/g2", "trace": "t", "value": 2}),
            )
            await batcher.drain()
            return registry

        registry = asyncio.run(run())
        # Phase 1 still runs once per (trace, geometry) group...
        assert sorted(recorder.resolved) == ["t/g1", "t/g2"]
        counters = registry.snapshot()["counters"]
        assert counters["service.batch.groups"] == 2
        # ...but the scheduler sees one trace fanned over two geometries.
        assert counters["service.batch.trace_groups"] == 1
        assert counters["service.batch.geometry_coalesced"] == 1

    def test_interleaved_fans_resolve_trace_adjacent(self):
        recorder = Recorder()

        async def run():
            batcher, registry = make_batcher(recorder)
            batcher.start()
            await asyncio.gather(
                batcher.submit({"key": "a1", "trace": "A", "value": 1}),
                batcher.submit({"key": "b1", "trace": "B", "value": 2}),
                batcher.submit({"key": "a2", "trace": "A", "value": 3}),
                batcher.submit({"key": "b2", "trace": "B", "value": 4}),
            )
            await batcher.drain()
            return registry

        registry = asyncio.run(run())
        # Groups sharing a trace run back-to-back (profile memo stays
        # hot), in first-arrival order within and across traces.
        assert recorder.resolved == ["a1", "a2", "b1", "b2"]
        counters = registry.snapshot()["counters"]
        assert counters["service.batch.groups"] == 4
        assert counters["service.batch.trace_groups"] == 2
        assert counters["service.batch.geometry_coalesced"] == 2

    def test_distinct_traces_not_coalesced(self):
        recorder = Recorder()

        async def run():
            batcher, registry = make_batcher(recorder)
            batcher.start()
            await asyncio.gather(
                batcher.submit({"key": "x", "trace": "X", "value": 1}),
                batcher.submit({"key": "y", "trace": "Y", "value": 2}),
            )
            await batcher.drain()
            return registry

        registry = asyncio.run(run())
        counters = registry.snapshot()["counters"]
        assert counters["service.batch.trace_groups"] == 2
        assert counters["service.batch.geometry_coalesced"] == 0


class TestBackpressure:
    def test_queue_limit_rejects_immediately(self):
        recorder = Recorder()
        gate = Phase1Gate(recorder.resolve)

        async def run():
            batcher, registry = make_batcher(
                recorder, max_pending=2, resolve_events=gate
            )
            batcher.start()
            first = asyncio.ensure_future(
                batcher.submit({"key": "a", "value": 1})
            )
            second = asyncio.ensure_future(
                batcher.submit({"key": "b", "value": 2})
            )
            assert await asyncio.to_thread(gate.entered.wait, 10.0)
            # Both now pending: one held in phase 1, one behind it.
            with pytest.raises(QueueFullError):
                await batcher.submit({"key": "c", "value": 3})
            gate.release()
            await asyncio.gather(first, second)
            await batcher.drain()
            return registry

        registry = asyncio.run(run())
        assert registry.snapshot()["counters"]["service.queue.rejected"] == 1

    def test_submit_after_drain_rejected(self):
        recorder = Recorder()

        async def run():
            batcher, _ = make_batcher(recorder)
            batcher.start()
            await batcher.submit({"key": "a", "value": 1})
            await batcher.drain()
            with pytest.raises(QueueFullError, match="shutting down"):
                await batcher.submit({"key": "b", "value": 2})

        asyncio.run(run())

    def test_invalid_limits_rejected(self):
        with pytest.raises(ValueError):
            MicroBatcher(MetricsRegistry(), max_pending=0)
        with pytest.raises(ValueError):
            EventsMemo(0)


class TestFailurePaths:
    def test_compute_error_propagates_to_its_request_only(self):
        recorder = Recorder()
        original = recorder.compute

        def compute(params, events):
            if params["value"] == 13:
                raise ValueError("unlucky")
            return original(params, events)

        recorder.compute = compute

        async def run():
            batcher, _ = make_batcher(recorder)
            batcher.start()
            results = await asyncio.gather(
                batcher.submit({"key": "k", "value": 13}),
                batcher.submit({"key": "k", "value": 2}),
                return_exceptions=True,
            )
            await batcher.drain()
            return results

        failed, ok = asyncio.run(run())
        assert isinstance(failed, ValueError)
        assert ok["value"] == 2

    def test_resolve_error_fails_whole_group(self):
        recorder = Recorder()
        recorder.resolve = lambda params: (_ for _ in ()).throw(
            RuntimeError("no events")
        )

        async def run():
            batcher, _ = make_batcher(recorder)
            batcher.start()
            results = await asyncio.gather(
                batcher.submit({"key": "k", "value": 1}),
                batcher.submit({"key": "k", "value": 2}),
                return_exceptions=True,
            )
            await batcher.drain()
            return results

        results = asyncio.run(run())
        assert all(isinstance(r, RuntimeError) for r in results)

    def test_cancelled_request_is_skipped_not_raced(self):
        recorder = Recorder()
        gate = Phase1Gate(recorder.resolve)

        async def run():
            batcher, registry = make_batcher(recorder, resolve_events=gate)
            batcher.start()
            doomed = asyncio.ensure_future(
                batcher.submit({"key": "k", "value": 1})
            )
            survivor = asyncio.ensure_future(
                batcher.submit({"key": "k", "value": 2})
            )
            assert await asyncio.to_thread(gate.entered.wait, 10.0)
            doomed.cancel()  # deadline path: handler abandons the wait
            gate.release()  # phase 1 done; phase 2 must skip the doomed
            result = await survivor
            with pytest.raises(asyncio.CancelledError):
                await doomed
            await batcher.drain()
            return result, registry

        result, registry = asyncio.run(run())
        assert result["value"] == 2
        assert [p["value"] for p in recorder.computed] == [2]
        counters = registry.snapshot()["counters"]
        assert counters["service.batch.abandoned"] == 1
        assert batcher_depth_zero(registry)


def batcher_depth_zero(registry):
    histogram = registry.snapshot()["histograms"]["service.queue.depth"]
    return histogram["count"] >= 1


class TestEventsMemo:
    def test_lru_bound(self):
        memo = EventsMemo(2)
        memo.put("a", 1)
        memo.put("b", 2)
        assert memo.get("a") == 1  # refresh
        memo.put("c", 3)  # evicts b
        assert memo.get("b") is None
        assert memo.get("a") == 1 and memo.get("c") == 3
