"""CI smoke for campaign orchestration: kill, resume, byte-identity.

Boots a 2-worker fleet (``python -m repro serve --workers 2
--campaign-dir REG``), submits a 16-point campaign to the router, and
then breaks things on purpose:

1. before the submit, the worker that owns a later cache column is
   SIGSTOPped, so the campaign settles every earlier point and then
   blocks, part-way, on a forward that never answers;
2. the worker that owns the first column is SIGKILLed while the
   campaign is in flight — the router's retry-through-restart must
   absorb it (zero errored points) and print its restart;
3. once the router's span ring shows every point before the stopped
   column resolved, the router is SIGTERMed: the drain must checkpoint
   exactly those points (0 < checkpointed < points), and a restarted
   fleet must *resume* from that checkpoint when the same spec is
   re-POSTed (no auto-resume on boot, and ``created`` must come back
   false).  The stopped worker is SIGKILLed once the checkpoint is on
   disk.

No step waits on a fixed sleep: each one polls for the state it needs.
Against the restarted fleet, ``python -m repro campaign submit
--via-service`` then runs the same spec into a registry of its own.
Both registries' ``results.jsonl`` are compared byte-for-byte against
an in-process ``run_campaign`` of the same spec into a fresh registry —
the crash, the worker deaths, and the service paths must all be
invisible in the final artifacts.  The span
spools every fleet process left behind (``--span-spool-dir`` fans one
root out into ``router``/``w0``/..) must validate end to end — the
phase-1 crash leaves an unsealed active file the phase-2 restart seals
— and assemble into a campaign-filtered Perfetto timeline carrying the
executor's ``campaign.*`` spans and a flow from a router
``service.forward`` span to a worker span.  CI then runs ``python -m
repro.obs.validate --campaign REG/<id>`` over the directory and uploads
it as a build artifact::

    PYTHONPATH=src python scripts/campaign_smoke.py --registry campaign_smoke
    PYTHONPATH=src python -m repro.obs.validate \
        --campaign campaign_smoke/$(ls campaign_smoke | grep -v baselines) \
        --spans campaign_smoke_spans/router
"""

import argparse
import json
import os
import queue
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.campaign.executor import run_campaign
from repro.campaign.registry import CAMPAIGN_DIR_ENV, CampaignRegistry
from repro.service import ServiceClient, queries
from repro.service import schemas as request_schemas
from repro.service.shard import HashRing, worker_names

SPEC = {
    "name": "ci-smoke",
    "traces": [
        {"kind": "spec92", "name": "ear", "instructions": 8000, "seed": 7}
    ],
    "caches": [
        {"total_bytes": 1 << n, "line_size": 32} for n in (11, 12, 13, 14)
    ],
    "policies": ["FS", "BNL3"],
    "memory_cycles": [8.0, 16.0],
}  # 16 points

#: How long any one awaited state may take to appear.
WAIT_S = 120.0


def launch_fleet(
    registry: Path, workers: int, span_spool: Path
) -> tuple[subprocess.Popen, int, queue.Queue]:
    """Start the fleet; returns it, its port, and a queue of the lines
    it prints after the announcement (read on a thread so the pipe never
    fills)."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0",
         "--workers", str(workers),
         "--campaign-dir", str(registry),
         "--span-spool-dir", str(span_spool)],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env={
            **os.environ,
            "PYTHONPATH": os.path.join(os.path.dirname(__file__), "..", "src"),
            "PYTHONUNBUFFERED": "1",
            # The env override beats --campaign-dir; keep them agreeing.
            CAMPAIGN_DIR_ENV: str(registry),
        },
    )
    line = process.stdout.readline()
    match = re.search(r"listening on .*:(\d+)", line)
    if not match:
        process.kill()
        raise SystemExit(f"fleet did not announce a port: {line!r}")
    lines: queue.Queue = queue.Queue()
    threading.Thread(
        target=lambda: [lines.put(out) for out in process.stdout],
        daemon=True,
    ).start()
    return process, int(match.group(1)), lines


def stop_fleet(process: subprocess.Popen, failures: list) -> None:
    process.send_signal(signal.SIGTERM)
    try:
        process.wait(timeout=30.0)
    except subprocess.TimeoutExpired:
        process.kill()
        failures.append("fleet did not drain within 30s of SIGTERM")


def wait_until(predicate, what: str) -> None:
    """Poll ``predicate`` until it holds; exit the smoke if it never does."""
    deadline = time.monotonic() + WAIT_S
    while not predicate():
        if time.monotonic() > deadline:
            raise SystemExit(f"timed out after {WAIT_S:g}s waiting for {what}")
        time.sleep(0.05)


def wait_for_line(lines: queue.Queue, pattern: str) -> str:
    """The first line the fleet prints that contains ``pattern``."""
    deadline = time.monotonic() + WAIT_S
    while True:
        try:
            line = lines.get(timeout=max(0.0, deadline - time.monotonic()))
        except queue.Empty:
            raise SystemExit(f"fleet never printed {pattern!r}") from None
        if pattern in line:
            return line


def column_owners(workers: int) -> list[str]:
    """The worker each cache column of SPEC lands on: the router's own
    placement (one events key per trace and geometry)."""
    validated = request_schemas.validate_sweep(
        {
            "trace": SPEC["traces"][0],
            "caches": SPEC["caches"],
            "policies": SPEC["policies"],
            "memory_cycles": SPEC["memory_cycles"],
        }
    )
    ring = HashRing(worker_names(workers))
    return [
        ring.owner(
            queries.events_key_of({"trace": validated["trace"], "cache": cache})
        )
        for cache in validated["caches"]
    ]


def resolved_points(client: ServiceClient) -> int:
    """``campaign.point`` spans finished in the router's own span ring
    (``/v1/debug/spans`` never touches a worker, stopped or not)."""
    document = client.request("GET", "/v1/debug/spans")
    return sum(
        1
        for event in document["traceEvents"]
        if event.get("ph") == "X" and event.get("name") == "campaign.point"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--registry",
        default="campaign_smoke",
        help="registry directory the fleet writes (uploaded by CI)",
    )
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument(
        "--span-spool",
        default=None,
        help="span-spool root the fleet writes one subdirectory per "
        "process into (default: REGISTRY_spans); validated and "
        "assembled into a campaign timeline at exit",
    )
    args = parser.parse_args(argv)
    if args.workers < 2:
        parser.error("--workers must be at least 2: the smoke stops one")
    registry_dir = Path(args.registry).resolve()
    registry_dir.mkdir(parents=True, exist_ok=True)
    span_spool = Path(
        args.span_spool
        or registry_dir.parent / f"{registry_dir.name}_spans"
    ).resolve()
    failures: list = []

    # -- phase 1: stop a later column's worker, submit, SIGKILL the ----
    # first column's worker, drain once the campaign is blocked.
    owners = column_owners(args.workers)
    first = owners[0]
    later = next(
        (ci for ci, owner in enumerate(owners) if owner != first), None
    )
    if later is None:
        raise SystemExit(
            f"every cache column lands on {first}: nothing to stop part-way"
        )
    per = len(SPEC["policies"]) * len(SPEC["memory_cycles"])
    settled = later * per  # the points before the stopped column
    process, port, lines = launch_fleet(registry_dir, args.workers, span_spool)
    client = ServiceClient("127.0.0.1", port)
    client.wait_ready(timeout=60.0)
    pids = {
        name: info["pid"]
        for name, info in client.stats_envelope()["fleet"]["workers"].items()
    }
    stopped = owners[later]
    try:
        os.kill(pids[stopped], signal.SIGSTOP)
        print(f"SIGSTOPped worker {stopped} (pid {pids[stopped]}), "
              f"owner of cache column {later}")
        view = client.submit_campaign(SPEC)
        campaign_id = view["campaign"]
        points = view["progress"]["points"]
        print(f"submitted campaign {campaign_id[:12]} ({points} points) "
              f"on port {port}")
        os.kill(pids[first], signal.SIGKILL)
        print(f"SIGKILLed worker {first} (pid {pids[first]})")
        wait_until(
            lambda: resolved_points(client) >= settled,
            f"the {settled} points before column {later} to resolve",
        )
        print(wait_for_line(lines, f"worker {first} restarted").strip())
        print(f"campaign blocked after {settled} points; "
              "SIGTERMing the router")
        client.close()
        process.send_signal(signal.SIGTERM)
        campaign = CampaignRegistry(registry_dir).get(campaign_id)
        wait_until(
            lambda: campaign.progress()["done"] > 0, "the drain's checkpoint"
        )
    finally:
        # The stopped worker holds the router's drain (it cannot answer
        # SIGTERM); once the checkpoint is on disk, or the smoke has
        # failed, it goes.
        os.kill(pids[stopped], signal.SIGKILL)
        try:
            process.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            process.kill()
            failures.append("fleet did not drain within 30s of SIGTERM")
    checkpointed = campaign.progress()["done"]
    print(f"drained with {checkpointed} points checkpointed")
    if not 0 < checkpointed < points:
        failures.append(
            f"the drain checkpointed {checkpointed} of {points} points: "
            "the resume never starts from a partial checkpoint"
        )
    elif checkpointed != settled:
        failures.append(
            f"the drain checkpointed {checkpointed} points, but {settled} "
            "resolved before the stopped column"
        )

    # -- phase 2: restart, re-POST the same spec, run to completion ----
    process, port, _lines = launch_fleet(registry_dir, args.workers, span_spool)
    client = ServiceClient("127.0.0.1", port)
    client.wait_ready(timeout=60.0)
    booted = client.campaign_status(campaign_id)["progress"]
    if booted["done"] != checkpointed:
        failures.append(
            f"restarted fleet reports {booted['done']} done, "
            f"checkpoint said {checkpointed} (auto-resume? lost state?)"
        )
    again = client.submit_campaign(SPEC)
    if again["created"]:
        failures.append("re-POSTed spec registered a new campaign")
    done = client.wait_campaign(campaign_id, timeout=300.0)
    if done["progress"]["errors"]:
        failures.append(
            f"campaign finished with {done['progress']['errors']} errors"
        )
    records = list(client.campaign_results(campaign_id))
    if len(records) != done["progress"]["points"] + 2:
        failures.append(
            f"results stream carried {len(records)} lines for "
            f"{done['progress']['points']} points"
        )
    client.close()
    print(f"resumed to completion: {done['progress']['done']} done")

    # The same spec through the --via-service executor, into its own
    # registry, against the restarted fleet.
    via_root = registry_dir.parent / f"{registry_dir.name}_via"
    via_root.mkdir(parents=True, exist_ok=True)
    spec_path = via_root / "spec.json"
    spec_path.write_text(json.dumps(SPEC), encoding="utf-8")
    via = subprocess.run(
        [sys.executable, "-m", "repro", "campaign", "submit", str(spec_path),
         "--via-service", f"127.0.0.1:{port}", "--quiet"],
        capture_output=True,
        text=True,
        timeout=300.0,
        env={
            **os.environ,
            "PYTHONPATH": os.path.join(os.path.dirname(__file__), "..", "src"),
            CAMPAIGN_DIR_ENV: str(via_root / "registry"),
        },
    )
    if via.returncode != 0:
        failures.append(
            f"campaign submit --via-service exited {via.returncode}: "
            f"{via.stderr.strip()[-400:]}"
        )
    else:
        print(via.stdout.strip().splitlines()[-1])
    stop_fleet(process, failures)

    # -- phase 3: byte-identity against an in-process run --------------
    written = {"fleet": CampaignRegistry(registry_dir).get(campaign_id)}
    if via.returncode == 0:
        written["--via-service"] = CampaignRegistry(via_root / "registry").get(
            campaign_id
        )
    local_root = registry_dir.parent / f"{registry_dir.name}_local"
    os.environ[CAMPAIGN_DIR_ENV] = str(local_root)
    local = CampaignRegistry(local_root)
    reference, _ = local.submit(SPEC)
    report = run_campaign(reference)
    if not report["progress"]["complete"]:
        failures.append("local reference run did not complete")
    else:
        expected = reference.results_path.read_bytes()
        for label, campaign in written.items():
            if not campaign.results_path.is_file():
                failures.append(f"{label} run wrote no results.jsonl")
            elif campaign.results_path.read_bytes() != expected:
                failures.append(
                    f"{label} results.jsonl differs from the local run"
                )
            else:
                print(
                    f"byte-identity: {label} and local results.jsonl match "
                    f"({len(expected)} bytes)"
                )

    # -- phase 4: the span spools the fleet left must validate and ----
    # assemble into a campaign-filtered timeline (the crash in phase 1
    # left an unsealed active file; the phase-2 restart sealed it, so
    # the whole spool is checksummed end to end).
    from repro.obs.cli import assemble_timeline
    from repro.obs.schemas import SchemaError, validate_chrome_trace
    from repro.obs.span_spool import validate_spool

    spool_dirs = sorted(
        entry for entry in span_spool.iterdir() if entry.is_dir()
    ) if span_spool.is_dir() else []
    if not spool_dirs:
        failures.append(f"fleet left no span spools under {span_spool}")
    total_spans = 0
    for spool_dir in spool_dirs:
        try:
            counts = validate_spool(str(spool_dir))
        except (OSError, SchemaError) as error:
            failures.append(f"span spool {spool_dir.name} invalid: {error}")
            continue
        total_spans += counts["records"]
    try:
        timeline = assemble_timeline(
            str(span_spool), str(registry_dir / campaign_id)
        )
        validate_chrome_trace(timeline)
        campaign_spans = [
            e
            for e in timeline["traceEvents"]
            if e.get("ph") == "X"
            and e.get("name", "").startswith("campaign.")
        ]
        # The offline timeline shares the live merger, so each forwarded
        # point's router->worker edge is a repro.flow s/f pair.
        forward_ids = {
            e["args"]["span_id"]
            for e in timeline["traceEvents"]
            if e.get("ph") == "X"
            and e.get("name") == "service.forward"
            and e.get("pid") == 0
        }
        flows = [
            e
            for e in timeline["traceEvents"]
            if e.get("cat") == "repro.flow" and e.get("id") in forward_ids
        ]
        if not campaign_spans:
            failures.append(
                "campaign timeline carries no campaign.* spans"
            )
        elif not (
            any(e["ph"] == "s" and e["pid"] == 0 for e in flows)
            and any(e["ph"] == "f" and e["pid"] >= 1 for e in flows)
        ):
            failures.append(
                "campaign timeline carries no flow from a router "
                "service.forward span to a worker span"
            )
        else:
            print(
                f"span spools ok: {total_spans} spans across "
                f"{len(spool_dirs)} processes, campaign timeline has "
                f"{len(campaign_spans)} campaign spans and "
                f"{len(flows) // 2} forward flows"
            )
    except (OSError, ValueError, KeyError, SchemaError) as error:
        failures.append(f"campaign timeline assembly failed: {error}")

    if failures:
        print("FAILURES:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"campaign smoke ok: registry at {registry_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
