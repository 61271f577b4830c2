"""Closed-loop load generator for the tradeoff-query service.

Starts an in-process :class:`repro.service.ServerThread`, drives it
with 1 / 4 / 16 concurrent blocking clients (one request in flight per
client, rounds synchronized so concurrency is real, not accidental),
and writes the scoreboard the repo commits as ``BENCH_service.json``::

    PYTHONPATH=src python benchmarks/bench_service.py --out BENCH_service.json

Each concurrency level sweeps ``beta_m`` over a *shared* (trace,
geometry) key in a level-private range, so the run demonstrates all
three serving layers at once:

* within a round, concurrent distinct-``beta_m`` requests coalesce into
  micro-batches (``coalescing_ratio`` = batched requests per batch
  group — >1 at 16 clients is an acceptance criterion);
* across rounds, repeated configurations hit the content-addressed
  result cache (``cache_hit_rate``);
* across the whole run, phase-1 extraction happens exactly once per
  distinct key (``coalescing.phase1_extractions``, the events memo's
  ``phase1.memo.miss`` count, vs ``distinct_keys``).

The closed-loop levels are followed by an **open-loop capacity** probe
(schema ``/4``): Poisson arrivals at a ladder of offered rates over a
pre-warmed key set, latency measured from the *intended* arrival time
(so queueing under overload is charged, not hidden — no coordinated
omission), once against a single-process server and once against a
2-worker fleet (:mod:`repro.service.router`).  The ``capacity``
headline is the highest offered rate each topology sustains with
p99 <= 50 ms and nothing shed; the bench-history gate tracks both.

``python -m repro.obs.validate --bench-service BENCH_service.json``
enforces those invariants plus zero errors and zero step-simulator
dispatches; CI regenerates and validates the document on every push.
"""

import argparse
import os
import random
import shutil
import statistics
import sys
import tempfile
import threading
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from _provenance import bench_provenance

from repro.cache import events_store
from repro.cache.events_store import EVENTS_CACHE_DIR_ENV
from repro.obs import metrics
from repro.obs.metrics import percentile
from repro.obs.schemas import BENCH_SERVICE_SCHEMA, validate_bench_service
from repro.service import (
    FleetConfig,
    FleetThread,
    ServerConfig,
    ServerThread,
    ServiceClient,
)
from repro.service import queries, schemas as request_schemas

#: One shared trace per level keeps the (trace, geometry) key hot while
#: every request still asks a distinct timing question (its own beta).
LEVEL_TRACES = {
    1: {"kind": "spec92", "name": "swm256", "instructions": 4000, "seed": 7},
    4: {"kind": "spec92", "name": "swm256", "instructions": 4000, "seed": 7},
    16: {"kind": "matmul", "n": 24, "tile": 8},
}

#: Disjoint beta_m ranges per level so one level's result-cache entries
#: cannot mask another level's cold misses.
LEVEL_BETA = {
    1: lambda client, rnd: 2.0 + (rnd % 8),
    4: lambda client, rnd: 50.0 + ((4 * rnd + client) % 24),
    16: lambda client, rnd: 100.0 + ((16 * rnd + client) % 48),
}

ROUNDS_PER_CLIENT = 24
WARM_REPEATS = 50


def _level_params(level: int, client: int, rnd: int) -> dict:
    return {
        "trace": LEVEL_TRACES[level],
        "memory_cycle": LEVEL_BETA[level](client, rnd),
    }


def run_level(port: int, level: int, registry) -> tuple[dict, set[str]]:
    """Drive one concurrency level; returns (scoreboard entry, keys)."""
    latencies: list[float] = []
    errors: list[Exception] = []
    worker_stats: list = []
    lock = threading.Lock()
    barrier = threading.Barrier(level)
    keys: set[str] = set()
    for client in range(level):
        for rnd in range(ROUNDS_PER_CLIENT):
            keys.add(
                queries.events_key_of(
                    request_schemas.validate_simulate(
                        _level_params(level, client, rnd)
                    )
                )
            )

    def worker(client: int) -> None:
        connection = ServiceClient("127.0.0.1", port)
        try:
            for rnd in range(ROUNDS_PER_CLIENT):
                barrier.wait()  # one synchronized round in flight at a time
                started = time.perf_counter()
                try:
                    envelope = connection.simulate(
                        **_level_params(level, client, rnd)
                    )
                    assert envelope["result"]["cycles"] > 0
                except Exception as error:  # noqa: BLE001 - scoreboard data
                    with lock:
                        errors.append(error)
                    return
                with lock:
                    latencies.append((time.perf_counter() - started) * 1000.0)
        finally:
            with lock:
                worker_stats.append(connection.stats)
            connection.close()

    before_requests = registry.counter("service.batch.requests")
    before_groups = registry.counter("service.batch.groups")
    before_hits = registry.counter("service.result_cache.hits")
    before_misses = registry.counter("service.result_cache.misses")
    threads = [
        threading.Thread(target=worker, args=(client,), name=f"lg-{client}")
        for client in range(level)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started

    batched = registry.counter("service.batch.requests") - before_requests
    groups = registry.counter("service.batch.groups") - before_groups
    hits = registry.counter("service.result_cache.hits") - before_hits
    misses = registry.counter("service.result_cache.misses") - before_misses
    lookups = hits + misses
    # The client-side view of the same run: per-call wall time as the
    # caller experienced it (ServiceClient instrumentation), plus the
    # reconnect-retry count — zero on a healthy, non-draining server.
    client_latencies = [v for s in worker_stats for v in s.latencies()]
    client_section = {
        "calls": sum(s.calls for s in worker_stats),
        "retries": sum(s.retries for s in worker_stats),
        "errors": sum(s.errors for s in worker_stats),
        "latency_ms": {
            "p50": round(percentile(client_latencies, 50.0), 3),
            "p99": round(percentile(client_latencies, 99.0), 3),
        },
    }
    entry = {
        "clients": level,
        "requests": len(latencies),
        "errors": len(errors),
        "throughput_rps": round(len(latencies) / elapsed, 1),
        "coalescing_ratio": round(batched / groups, 2) if groups else 1.0,
        "cache_hit_rate": round(hits / lookups, 3) if lookups else 0.0,
        "latency_ms": {
            "p50": round(percentile(latencies, 50.0), 3),
            "p99": round(percentile(latencies, 99.0), 3),
            "mean": round(statistics.fmean(latencies), 3),
            "max": round(max(latencies), 3),
        },
        "client": client_section,
    }
    if errors:
        entry["first_error"] = repr(errors[0])
    return entry, keys


def run_warm_cache(port: int) -> tuple[dict, set[str]]:
    """Cold-vs-warm on a config no level touched (fresh events key)."""
    params = {
        "trace": {"kind": "spec92", "name": "ear", "instructions": 4000, "seed": 11},
        "memory_cycle": 8.0,
    }
    key = queries.events_key_of(request_schemas.validate_simulate(params))
    connection = ServiceClient("127.0.0.1", port)
    try:
        started = time.perf_counter()
        cold = connection.simulate(**params)
        cold_ms = (time.perf_counter() - started) * 1000.0
        assert cold["cached"] is False
        warm_ms: list[float] = []
        for _ in range(WARM_REPEATS):
            started = time.perf_counter()
            warm = connection.simulate(**params)
            warm_ms.append((time.perf_counter() - started) * 1000.0)
            assert warm["cached"] is True
            assert warm["result"] == cold["result"]
    finally:
        connection.close()
    p50 = percentile(warm_ms, 50.0)
    return (
        {
            "p50_ms": round(p50, 3),
            "p99_ms": round(percentile(warm_ms, 99.0), 3),
            "cold_compute_ms": round(cold_ms, 3),
            "speedup": round(cold_ms / p50, 1),
        },
        {key},
    )


#: The open-loop capacity probe: SLO, offered-rate ladder, timing.
SLO_P99_MS = 50.0
CAPACITY_LADDER = (50.0, 100.0, 200.0, 400.0)
CAPACITY_RUNG_S = 1.5
CAPACITY_POOL = 16  # sender threads; overload shows up as queue delay
CAPACITY_WARM_POINTS = 32
CAPACITY_SEED = 20260808
CAPACITY_TRACE = {
    "kind": "spec92",
    "name": "swm256",
    "instructions": 4000,
    "seed": 23,
}


def _capacity_params(i: int) -> dict:
    # A private beta range over one trace: after warming, every request
    # is a result-cache hit, so the probe measures the serving layer
    # (parsing, routing, cache lookup, serialization), which is the part
    # a fleet multiplies.
    return {
        "trace": CAPACITY_TRACE,
        "memory_cycle": 300.0 + (i % CAPACITY_WARM_POINTS),
    }


def _warm_capacity_keys(port: int) -> None:
    connection = ServiceClient("127.0.0.1", port)
    try:
        for i in range(CAPACITY_WARM_POINTS):
            connection.simulate(**_capacity_params(i))
        for i in range(CAPACITY_WARM_POINTS):
            assert connection.simulate(**_capacity_params(i))["cached"]
    finally:
        connection.close()


def run_capacity_rung(port: int, offered_rps: float, seed: int) -> dict:
    """One open-loop rung: Poisson arrivals at ``offered_rps``.

    The arrival schedule is drawn up front from a seeded RNG (the same
    offered rate replays the same arrivals run to run); each sender
    sleeps until its request's *intended* arrival time and the latency
    clock starts there, so time spent waiting for a free sender or a
    busy server is charged to the rung rather than silently dropped.
    """
    rng = random.Random(seed)
    schedule: list[float] = []
    t = 0.0
    while t < CAPACITY_RUNG_S:
        schedule.append(t)
        t += rng.expovariate(offered_rps)
    lock = threading.Lock()
    next_index = [0]
    ok_ms: list[float] = []
    shed = [0]
    errors = [0]
    epoch = time.perf_counter() + 0.05  # let every sender reach the loop

    def sender() -> None:
        from repro.service import ServiceError

        connection = ServiceClient("127.0.0.1", port)
        try:
            while True:
                with lock:
                    i = next_index[0]
                    if i >= len(schedule):
                        return
                    next_index[0] = i + 1
                intended = epoch + schedule[i]
                delay = intended - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                try:
                    connection.simulate(**_capacity_params(i))
                except ServiceError as error:
                    with lock:
                        if error.status == 429:
                            shed[0] += 1
                        else:
                            errors[0] += 1
                except Exception:  # noqa: BLE001 - scoreboard data
                    with lock:
                        errors[0] += 1
                else:
                    with lock:
                        ok_ms.append(
                            (time.perf_counter() - intended) * 1000.0
                        )
        finally:
            connection.close()

    threads = [
        threading.Thread(target=sender, name=f"cap-{i}")
        for i in range(CAPACITY_POOL)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = max(time.perf_counter() - epoch, CAPACITY_RUNG_S)
    return {
        "offered_rps": offered_rps,
        "achieved_rps": round(len(ok_ms) / elapsed, 1),
        "p50_ms": round(percentile(ok_ms, 50.0), 3) if ok_ms else 0.0,
        "p99_ms": round(percentile(ok_ms, 99.0), 3) if ok_ms else 0.0,
        "shed": shed[0],
        "errors": errors[0],
        "sustained": bool(ok_ms)
        and percentile(ok_ms, 99.0) <= SLO_P99_MS
        and shed[0] == 0
        and errors[0] == 0,
    }


def run_capacity(port: int, workers: int) -> dict:
    """Ladder the offered rate against one topology; returns the entry.

    ``max_sustained_rps`` is the last rung of the unbroken passing
    prefix: a rung that passes above a failed one is noise, not
    capacity.  Every rung still lands in the curve.
    """
    _warm_capacity_keys(port)
    curve = []
    max_sustained = 0.0
    broken = False
    for rung_number, offered in enumerate(CAPACITY_LADDER):
        rung = run_capacity_rung(
            port, offered, seed=CAPACITY_SEED + rung_number
        )
        sustained = rung.pop("sustained")
        broken = broken or not sustained
        if not broken:
            max_sustained = offered
        curve.append(rung)
        print(
            f"capacity[{workers}w] offered {offered:g} rps: "
            f"achieved {rung['achieved_rps']:g}, p99 {rung['p99_ms']:g} ms, "
            f"shed {rung['shed']}, errors {rung['errors']}"
            + ("" if sustained else "  (over SLO)")
        )
    return {
        "workers": workers,
        "max_sustained_rps": max_sustained,
        "curve": curve,
    }


def run_capacity_section() -> dict:
    """The single-vs-fleet capacity comparison (its own servers).

    Both topologies get the same admission watermark so the 429 path is
    part of what the ladder exercises; both run over the same shared
    events-store directory, so phase-1 extraction for the capacity trace
    is paid once.
    """
    single_config = ServerConfig(shed_watermark=32)
    with ServerThread(single_config, registry=metrics.MetricsRegistry()) as handle:
        probe = ServiceClient("127.0.0.1", handle.port)
        probe.wait_ready()
        probe.close()
        single = run_capacity(handle.port, workers=1)
    fleet_config = FleetConfig(base=ServerConfig(shed_watermark=32), workers=2)
    with FleetThread(fleet_config, registry=metrics.MetricsRegistry()) as handle:
        probe = ServiceClient("127.0.0.1", handle.port)
        probe.wait_ready(timeout=30.0)
        probe.close()
        fleet = run_capacity(handle.port, workers=2)
    return {"slo_p99_ms": SLO_P99_MS, "single": single, "fleet": fleet}


#: Sampling parameters for the profiled load window.
PROFILE_WINDOW_S = 1.0
PROFILE_HZ = 397  # prime, like the profiler default


def run_profiled_window(port: int) -> dict:
    """One ``/v1/debug/profile`` window under live load; phase table.

    Exercises the wired endpoint end to end: a background client drives
    uncached simulate traffic (a private ``beta_m`` range) while another
    requests the sampling window over HTTP, so the returned
    ``phase_breakdown`` attributes the serving stack's own self-time
    (``service.phase2``, ``service.request``, …) under traffic.
    """
    stop = threading.Event()

    def hammer() -> None:
        connection = ServiceClient("127.0.0.1", port)
        beta = 0
        try:
            while not stop.is_set():
                beta += 1
                connection.simulate(
                    trace=LEVEL_TRACES[16],
                    memory_cycle=200.0 + (beta % 512) / 8.0,
                )
        finally:
            connection.close()

    load = threading.Thread(target=hammer, name="lg-profile")
    load.start()
    connection = ServiceClient("127.0.0.1", port)
    try:
        document = connection.debug_profile(
            seconds=PROFILE_WINDOW_S, hz=PROFILE_HZ
        )
    finally:
        stop.set()
        load.join()
        connection.close()
    return {
        "source": "debug_profile_under_load",
        "profile_id": document["id"],
        "hz": document["hz"],
        "duration_s": document["duration_s"],
        "phases": document["phases"],
    }


def collect() -> dict:
    """Run the whole load-generation session; returns the document."""
    store_dir = tempfile.mkdtemp(prefix="repro-bench-service-")
    previous_dir = os.environ.get(EVENTS_CACHE_DIR_ENV)
    os.environ[EVENTS_CACHE_DIR_ENV] = store_dir
    if metrics.metrics_enabled():
        metrics.disable_metrics()
    # The events memo is process-global: start it empty, so each key's
    # first resolve is a counted miss.
    events_store.clear_memory()
    config = ServerConfig()
    handle = ServerThread(config)  # shares the global metrics registry so
    try:  # engine and memo counters land in the same snapshot
        handle.start()
        registry = handle.server.registry
        probe = ServiceClient("127.0.0.1", handle.port)
        probe.wait_ready()
        probe.close()
        levels = {}
        all_keys: set[str] = set()
        for level in (1, 4, 16):
            entry, keys = run_level(handle.port, level, registry)
            levels[str(level)] = entry
            all_keys |= keys
            print(
                f"level {level:2d}: {entry['requests']} requests, "
                f"{entry['throughput_rps']} rps, "
                f"coalescing {entry['coalescing_ratio']}, "
                f"hit rate {entry['cache_hit_rate']}"
            )
        warm, warm_keys = run_warm_cache(handle.port)
        all_keys |= warm_keys
        print(
            f"warm cache: p50 {warm['p50_ms']} ms vs cold "
            f"{warm['cold_compute_ms']} ms ({warm['speedup']}x)"
        )
        phase_breakdown = run_profiled_window(handle.port)
        # Read before the capacity servers run: their batch threads
        # count into this same process-global registry.
        extractions = registry.counter("phase1.memo.miss")
        capacity = run_capacity_section()
        print(
            f"capacity: single {capacity['single']['max_sustained_rps']:g} "
            f"rps, fleet {capacity['fleet']['max_sustained_rps']:g} rps "
            f"(p99 <= {SLO_P99_MS:g} ms)"
        )
        top = sorted(
            phase_breakdown["phases"].items(),
            key=lambda item: item[1]["self_s"],
            reverse=True,
        )[:4]
        print(
            "profiled window phases: "
            + ", ".join(
                f"{name} {entry['fraction']:.0%}" for name, entry in top
            )
        )
        document = {
            "schema": BENCH_SERVICE_SCHEMA,
            "server": {
                "queue_limit": config.queue_limit,
                "result_cache_bytes": config.result_cache_bytes,
            },
            "workload": {
                "requests_per_client": ROUNDS_PER_CLIENT,
                "warm_repeats": WARM_REPEATS,
                "traces": sorted(
                    {
                        queries.trace_fingerprint_of(
                            request_schemas.validate_simulate(
                                {"trace": trace}
                            )["trace"]
                        )
                        for trace in LEVEL_TRACES.values()
                    }
                ),
            },
            "levels": levels,
            "coalescing": {
                "distinct_keys": len(all_keys),
                "phase1_extractions": extractions,
            },
            "warm_cache": warm,
            "capacity": capacity,
            "phase_breakdown": phase_breakdown,
            "dispatch": {
                "replay_calls": registry.counter("engine.replay.calls"),
                "step_calls": registry.counter("engine.step.calls"),
            },
            "provenance": bench_provenance(),
        }
    finally:
        handle.stop()
        if metrics.metrics_enabled():
            metrics.disable_metrics()
        if previous_dir is None:
            os.environ.pop(EVENTS_CACHE_DIR_ENV, None)
        else:
            os.environ[EVENTS_CACHE_DIR_ENV] = previous_dir
        shutil.rmtree(store_dir, ignore_errors=True)
    return document


def main(argv=None) -> int:
    from repro.util.jsonout import write_json

    parser = argparse.ArgumentParser(
        description="Load-generate the service; write BENCH_service.json"
    )
    parser.add_argument("--out", default="BENCH_service.json", help="output path")
    args = parser.parse_args(argv)
    document = collect()
    validate_bench_service(document)
    path = write_json(args.out, document)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
