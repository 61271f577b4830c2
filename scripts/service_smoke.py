"""CI smoke for the tradeoff-query service: the real binary, end to end.

Launches ``python -m repro serve`` as a subprocess (with a structured
access log), drives it with concurrent mixed requests (analytic +
simulation, repeats for cache hits) carrying pinned
``X-Repro-Request-Id`` headers, scrapes ``/metrics``,
``/v1/debug/profile`` (a short sampling window whose document must
validate and whose id must be annotated on its access-log record) and
``/v1/debug/trace``, writes every captured response envelope plus the
stats snapshot and the span-ring tail to disk, and SIGTERMs the server
to exercise the drain path.  The captured payloads are then validated
offline::

    PYTHONPATH=src python scripts/service_smoke.py --payload-dir payloads
    PYTHONPATH=src python -m repro.obs.validate \
        --service-response payloads/*.json \
        --access-log payloads/access_log.jsonl

Exit is non-zero if any request errors, if a *cached-config* simulation
dispatched to the step simulator (the replay engine must cover every
repeated query the smoke issues), if the server fails to drain cleanly
on SIGTERM, or if the three observability views disagree: the metrics
exposition must parse with a rolling-window p99 for every endpoint the
smoke hit, every ``request_id`` in the span ring must appear in the
access log, and the pinned simulate ids must appear in both.

With ``--workers N`` (N > 1) the same smoke drives the sharded fleet:
the router is launched with N workers, one worker is SIGKILLed while
the mixed traffic is in flight (every request must still succeed —
forwarding retries through the restart), the supervisor must respawn
the slot with a fresh pid, and ``--compare-results DIR`` asserts each
captured simulate ``result`` object is byte-identical to the one a
prior single-process run wrote to DIR::

    PYTHONPATH=src python scripts/service_smoke.py --payload-dir single
    PYTHONPATH=src python scripts/service_smoke.py --payload-dir fleet \
        --workers 2 --compare-results single
"""

import argparse
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.obs.access_log import read_access_log
from repro.obs.live import parse_exposition
from repro.obs.schemas import (
    SchemaError,
    validate_access_log_record,
    validate_profile,
)
from repro.service import ServiceClient
from repro.util.jsonout import dump_json, write_json

SIMULATE_CONFIGS = [
    {
        "trace": {"kind": "spec92", "name": "swm256", "instructions": 3000, "seed": 7},
        "memory_cycle": beta,
    }
    for beta in (4.0, 8.0, 16.0)
] + [
    {"trace": {"kind": "matmul", "n": 16, "tile": 4}, "policy": "BNL3"},
]

ANALYTIC_REQUESTS = [
    ("execution-time", {"hit_ratio": 0.95, "memory_cycle": 8.0}),
    ("tradeoff", {"feature": "doubling-bus", "base_hit_ratio": 0.9}),
    ("ranking", {"base_hit_ratio": 0.9, "betas": [2.0, 8.0, 32.0]}),
    ("advise", {"memory_cycle": 12.0}),
]


def launch_server(access_log: Path, workers: int = 1) -> tuple[subprocess.Popen, int]:
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--access-log", str(access_log),
         "--workers", str(workers)],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env={
            **os.environ,
            "PYTHONPATH": os.path.join(os.path.dirname(__file__), "..", "src"),
            "PYTHONUNBUFFERED": "1",
        },
    )
    line = process.stdout.readline()
    match = re.search(r"listening on .*:(\d+)", line)
    if not match:
        process.kill()
        raise SystemExit(f"server did not announce a port: {line!r}")
    return process, int(match.group(1))


def counter_total(counters: dict, name: str) -> float:
    """Sum a counter across the fleet: the router re-keys each worker's
    counters with a ``worker=`` label, so ``engine.step.calls`` becomes
    ``engine.step.calls{worker=w0}`` in the merged snapshot."""
    return sum(
        value
        for key, value in counters.items()
        if key == name or key.startswith(name + "{")
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--payload-dir",
        default="service_payloads",
        help="directory for captured response envelopes",
    )
    parser.add_argument(
        "--access-log",
        default=None,
        help="server access-log path (default: PAYLOAD_DIR/access_log.jsonl)",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        help="span-ring tail export "
        "(default: PAYLOAD_DIR/trace/trace_tail.json, outside the "
        "--service-response glob)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="fleet size; above 1 the smoke SIGKILLs a worker mid-run "
        "and asserts the supervisor respawns it (default: 1)",
    )
    parser.add_argument(
        "--compare-results",
        default=None,
        metavar="DIR",
        help="payload dir from a prior run; every captured simulate "
        "result object must be byte-identical to its counterpart there",
    )
    args = parser.parse_args(argv)
    payload_dir = Path(args.payload_dir)
    payload_dir.mkdir(parents=True, exist_ok=True)
    access_log_path = Path(args.access_log or payload_dir / "access_log.jsonl")
    trace_out = Path(
        args.trace_out or payload_dir / "trace" / "trace_tail.json"
    )

    process, port = launch_server(access_log_path, workers=args.workers)
    captured: dict[str, dict] = {}
    failures: list[str] = []
    lock = threading.Lock()

    def record(name: str, envelope: dict) -> None:
        with lock:
            captured[name] = envelope

    def analytic_worker() -> None:
        client = ServiceClient("127.0.0.1", port)
        try:
            for endpoint, params in ANALYTIC_REQUESTS * 3:
                envelope = client.request("POST", f"/v1/{endpoint}", params)
                record(f"analytic_{endpoint}", envelope)
        except Exception as error:  # noqa: BLE001 - reported at exit
            failures.append(f"analytic: {error!r}")
        finally:
            client.close()

    pinned_ids: set[str] = set()
    span_ids: set[str] = set()

    def simulate_worker(worker_id: int) -> None:
        client = ServiceClient("127.0.0.1", port)
        try:
            # Two passes over the same configs: the second is the
            # cached-config pass that must not touch the step engine.
            # Every request pins its own X-Repro-Request-Id, so the
            # access log and the span ring can be cross-checked by id.
            for round_id in range(2):
                for index, params in enumerate(SIMULATE_CONFIGS):
                    request_id = f"smoke-w{worker_id}-r{round_id}-c{index}"
                    with lock:
                        pinned_ids.add(request_id)
                    envelope = client.request(
                        "POST", "/v1/simulate", params, request_id=request_id
                    )
                    if envelope["result"]["engine"] != "replay":
                        failures.append(
                            f"config {index} served by "
                            f"{envelope['result']['engine']}, expected replay"
                        )
                    record(f"simulate_{index}_round{round_id}", envelope)
        except Exception as error:  # noqa: BLE001 - reported at exit
            failures.append(f"simulate[{worker_id}]: {error!r}")
        finally:
            client.close()

    try:
        probe = ServiceClient("127.0.0.1", port)
        probe.wait_ready(timeout=30.0)
        victim_pid = None
        if args.workers > 1:
            fleet_before = probe.stats_envelope().get("fleet", {})
            victim_pid = (
                fleet_before.get("workers", {}).get("w0", {}).get("pid")
            )
            if victim_pid is None:
                failures.append("fleet stats carry no pid for worker w0")
        threads = [threading.Thread(target=analytic_worker)] + [
            threading.Thread(target=simulate_worker, args=(i,)) for i in range(4)
        ]
        for thread in threads:
            thread.start()
        if victim_pid is not None:
            # Kill a worker while the mixed traffic is in flight: every
            # request must still succeed — the router retries transport
            # failures through the restart — and the supervisor must
            # respawn the slot with a fresh pid before we finish.
            time.sleep(0.3)
            os.kill(victim_pid, signal.SIGKILL)
        for thread in threads:
            thread.join()
        if victim_pid is not None:
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                fleet_now = probe.stats_envelope().get("fleet", {})
                w0 = fleet_now.get("workers", {}).get("w0", {})
                if (
                    w0.get("alive")
                    and w0.get("pid") != victim_pid
                    and fleet_now.get("restarts", 0) >= 1
                ):
                    break
                time.sleep(0.2)
            else:
                failures.append(
                    f"worker w0 (pid {victim_pid}) was not respawned "
                    f"within 30s of SIGKILL"
                )
        stats = probe.stats_envelope()
        record("stats", stats)
        if args.workers > 1:
            fleet_section = stats.get("fleet", {})
            workers_info = fleet_section.get("workers", {})
            if len(workers_info) != args.workers:
                failures.append(
                    f"fleet stats list {len(workers_info)} workers, "
                    f"expected {args.workers}"
                )
            for name, info in workers_info.items():
                if not (info.get("alive") and info.get("reachable")):
                    failures.append(f"worker {name} not alive+reachable: {info}")

        # The live-observability surfaces, scraped while still serving.
        metrics_text = probe.metrics_text()
        samples = parse_exposition(metrics_text)
        (payload_dir / "metrics.prom").write_text(metrics_text)
        p99_endpoints = {
            labels["endpoint"]
            for labels, _ in samples.get("repro_sli_request_latency_ms", [])
            if labels.get("quantile") == "0.99"
        }
        for endpoint in ("simulate", "execution-time", "tradeoff"):
            if endpoint not in p99_endpoints:
                failures.append(
                    f"/metrics has no rolling-window p99 for {endpoint!r}"
                )
        if args.workers > 1 and (
            f"repro_fleet_workers {args.workers}" not in metrics_text
        ):
            failures.append("merged /metrics is missing the fleet gauges")
        # A short profiling window while traffic is still possible; the
        # document must validate and its id must land in the access log
        # as the debug-profile request's annotation.
        profile_document = probe.debug_profile(seconds=0.3, hz=199)
        try:
            validate_profile(profile_document)
        except SchemaError as error:
            failures.append(f"/v1/debug/profile document invalid: {error}")
        profile_id = profile_document.get("id")
        write_json(payload_dir / "trace" / "profile.json", profile_document)

        trace_document = probe.debug_trace(last=4096)
        write_json(trace_out, trace_document)
        if not trace_document.get("enabled"):
            failures.append("/v1/debug/trace reports tracing disabled")
        if args.workers > 1:
            # Distributed-tracing pin: one forwarded request must yield
            # a merged document where the router's forward span fathers
            # the worker's ingress span under one trace id.  The merged
            # doc is kept for the CI artifact upload.
            probe.simulate(
                trace={
                    "kind": "spec92",
                    "name": "swm256",
                    "instructions": 3000,
                    "seed": 997,
                },
                memory_cycle=6.0,
            )
            fleet_trace_id = probe.last_trace_id
            stitched = None
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                merged = probe.debug_trace(trace_id=fleet_trace_id)
                spans = [
                    e
                    for e in merged.get("traceEvents", [])
                    if e.get("ph") == "X"
                ]
                forwards = [
                    e
                    for e in spans
                    if e["name"] == "service.forward" and e["pid"] == 0
                ]
                worker_spans = [e for e in spans if e["pid"] >= 1]
                if forwards and worker_spans:
                    stitched = (merged, forwards[0], spans, worker_spans)
                    break
                time.sleep(0.2)
            if stitched is None:
                failures.append(
                    f"merged trace for {fleet_trace_id} never assembled "
                    f"router and worker spans"
                )
            else:
                merged, forward, spans, worker_spans = stitched
                write_json(payload_dir / "trace" / "fleet_trace.json", merged)
                if not all(
                    e.get("args", {}).get("trace_id") == fleet_trace_id
                    for e in spans
                ):
                    failures.append(
                        "merged trace mixes trace ids despite the filter"
                    )
                if not any(
                    e["args"].get("parent_span_id")
                    == forward["args"]["span_id"]
                    for e in worker_spans
                ):
                    failures.append(
                        "no worker span names the router's forward span "
                        "as its parent"
                    )
                if not any(
                    e.get("ph") == "f"
                    for e in merged.get("traceEvents", [])
                    if e.get("cat") == "repro.flow"
                ):
                    failures.append(
                        "merged trace carries no forward flow events"
                    )
        # The ring<->access-log invariant covers the router's own spans.
        # In fleet mode the merged document also carries worker tracks
        # (pid >= 1) whose internal scrape requests (/v1/stats,
        # /v1/debug/spans) mint worker-side ids the router never logs.
        span_ids.update(
            event["args"]["request_id"]
            for event in trace_document.get("traceEvents", [])
            if "request_id" in event.get("args", {})
            and (args.workers == 1 or event.get("pid") == 0)
        )
        if not pinned_ids <= span_ids:
            failures.append(
                f"pinned ids missing from the span ring: "
                f"{sorted(pinned_ids - span_ids)[:5]}"
            )
        probe.close()

        counters = stats["counters"]
        step_calls = counter_total(counters, "engine.step.calls")
        if step_calls:
            failures.append(f"{step_calls} step-simulator dispatches (want 0)")
        if stats["result_cache"]["hits"] == 0:
            failures.append("no result-cache hits despite repeated configs")
        if counter_total(counters, "service.phase1.resolves") > len(
            SIMULATE_CONFIGS
        ):
            failures.append("phase-1 ran more than once per distinct key")
    finally:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            process.kill()
            failures.append("server did not drain within 30s of SIGTERM")

    if process.returncode != 0:
        failures.append(f"server exited with status {process.returncode}")
    tail = process.stdout.read()
    if "drained" not in tail:
        failures.append(f"server did not report a drain: {tail!r}")

    # Cross-check the access log (complete now that the drain closed it)
    # against the span ring: every id a span saw must belong to a logged
    # request, and the pinned simulate ids must appear in both views.
    try:
        records = read_access_log(access_log_path)
        for index, entry in enumerate(records, start=1):
            validate_access_log_record(entry)
    except (OSError, ValueError, SchemaError) as error:
        records = []
        failures.append(f"access log invalid: {error}")
    if not records:
        failures.append(f"access log {access_log_path} is empty")
    logged_ids = {entry["request_id"] for entry in records}
    if not span_ids <= logged_ids:
        failures.append(
            f"span request ids missing from the access log: "
            f"{sorted(span_ids - logged_ids)[:5]}"
        )
    if not pinned_ids <= logged_ids:
        failures.append(
            f"pinned ids missing from the access log: "
            f"{sorted(pinned_ids - logged_ids)[:5]}"
        )
    annotated = [
        entry for entry in records if entry.get("profile_id") == profile_id
    ]
    if profile_id is None or len(annotated) != 1:
        failures.append(
            f"expected exactly one access-log record annotated with "
            f"profile_id={profile_id!r}, found {len(annotated)}"
        )
    elif annotated[0]["endpoint"] != "debug-profile":
        failures.append(
            f"profile_id annotation on endpoint "
            f"{annotated[0]['endpoint']!r}, expected 'debug-profile'"
        )

    # Byte-identity across topologies: the fleet run must serialize the
    # same result objects a single-process run produced for every
    # simulate point (the router forwards worker bodies verbatim and
    # sharding must not change what gets computed).
    if args.compare_results is not None:
        reference_dir = Path(args.compare_results)
        compared = 0
        for name, envelope in sorted(captured.items()):
            if not name.startswith("simulate_"):
                continue
            reference_path = reference_dir / f"{name}.json"
            if not reference_path.exists():
                failures.append(f"no reference envelope {reference_path}")
                continue
            reference = json.loads(reference_path.read_text())
            if dump_json(reference["result"]) != dump_json(envelope["result"]):
                failures.append(
                    f"{name}: result differs from the run in {reference_dir}/"
                )
            compared += 1
        if compared == 0:
            failures.append(
                f"no simulate envelopes to compare against {reference_dir}/"
            )
        else:
            print(
                f"compared {compared} simulate results against "
                f"{reference_dir}/"
            )

    for name, envelope in sorted(captured.items()):
        write_json(payload_dir / f"{name}.json", envelope)
    print(
        f"captured {len(captured)} envelopes to {payload_dir}/ "
        f"({stats['result_cache']['hits']} cache hits, "
        f"{counter_total(counters, 'engine.replay.calls')} replay calls, "
        f"{counter_total(counters, 'engine.step.calls')} step calls); "
        f"{len(records)} access-log records, {len(span_ids)} traced ids"
    )
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main(None))
