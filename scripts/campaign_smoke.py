"""CI smoke for campaign orchestration: kill, resume, byte-identity.

Boots a 2-worker fleet (``python -m repro serve --workers 2
--campaign-dir REG``), submits a 16-point campaign to the router, and
then breaks things on purpose:

1. one worker is SIGKILLed while the campaign is in flight — the
   router's retry-through-restart must absorb it (zero errored points);
2. the router itself is SIGTERMed mid-campaign — the drain must
   checkpoint, and a restarted fleet must *resume* from that checkpoint
   when the same spec is re-POSTed (no auto-resume on boot, and
   ``created`` must come back false).

After the resumed run completes, the registry the fleet wrote is
compared byte-for-byte against an in-process ``run_campaign`` of the
same spec into a fresh registry — the crash, the worker death, and the
service path must all be invisible in the final artifacts.  The span
spools every fleet process left behind (``--span-spool-dir`` fans one
root out into ``router``/``w0``/..) must validate end to end — the
phase-1 crash leaves an unsealed active file the phase-2 restart seals
— and assemble into a campaign-filtered Perfetto timeline carrying the
executor's ``campaign.*`` spans.  CI then runs ``python -m
repro.obs.validate --campaign REG/<id>`` over the directory and uploads
it as a build artifact::

    PYTHONPATH=src python scripts/campaign_smoke.py --registry campaign_smoke
    PYTHONPATH=src python -m repro.obs.validate \
        --campaign campaign_smoke/$(ls campaign_smoke | grep -v baselines) \
        --spans campaign_smoke_spans/router
"""

import argparse
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.campaign.executor import run_campaign
from repro.campaign.registry import CAMPAIGN_DIR_ENV, CampaignRegistry
from repro.service import ServiceClient

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


def launch_fleet(
    registry: Path, workers: int, span_spool: Path
) -> tuple[subprocess.Popen, int]:
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
    return process, int(match.group(1))


def stop_fleet(process: subprocess.Popen, failures: list) -> None:
    process.send_signal(signal.SIGTERM)
    try:
        process.wait(timeout=30.0)
    except subprocess.TimeoutExpired:
        process.kill()
        failures.append("fleet did not drain within 30s of SIGTERM")


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
    registry_dir = Path(args.registry).resolve()
    registry_dir.mkdir(parents=True, exist_ok=True)
    span_spool = Path(
        args.span_spool
        or registry_dir.parent / f"{registry_dir.name}_spans"
    ).resolve()
    failures: list = []

    # -- phase 1: submit, SIGKILL a worker, SIGTERM the router mid-run --
    process, port = launch_fleet(registry_dir, args.workers, span_spool)
    client = ServiceClient("127.0.0.1", port)
    client.wait_ready(timeout=60.0)
    view = client.submit_campaign(SPEC)
    campaign_id = view["campaign"]
    print(f"submitted campaign {campaign_id[:12]} "
          f"({view['progress']['points']} points) on port {port}")
    if args.workers > 1:
        victim = client.stats_envelope()["fleet"]["workers"]["w0"]["pid"]
        os.kill(victim, signal.SIGKILL)
        print(f"SIGKILLed worker w0 (pid {victim})")
    # SIGTERM the router while points are (very likely) still in
    # flight: the drain must checkpoint whatever landed.  Wherever the
    # kill caught it, the resumed run must converge on the same bytes.
    time.sleep(0.5)
    print("SIGTERMing the router mid-campaign")
    client.close()
    stop_fleet(process, failures)

    interrupted = CampaignRegistry(registry_dir).get(campaign_id)
    checkpointed = interrupted.progress()["done"]
    print(f"drained with {checkpointed} points checkpointed")

    # -- phase 2: restart, re-POST the same spec, run to completion ----
    process, port = launch_fleet(registry_dir, args.workers, span_spool)
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
    if args.workers > 1:
        w0 = client.stats_envelope()["fleet"]["workers"]["w0"]
        if not w0["alive"]:
            failures.append("worker w0 was not respawned after SIGKILL")
    client.close()
    stop_fleet(process, failures)
    print(f"resumed to completion: {done['progress']['done']} done")

    # -- phase 3: byte-identity against an in-process run --------------
    server_campaign = CampaignRegistry(registry_dir).get(campaign_id)
    local_root = registry_dir.parent / f"{registry_dir.name}_local"
    os.environ[CAMPAIGN_DIR_ENV] = str(local_root)
    local = CampaignRegistry(local_root)
    reference, _ = local.submit(SPEC)
    report = run_campaign(reference)
    if not report["progress"]["complete"]:
        failures.append("local reference run did not complete")
    elif (
        server_campaign.results_path.read_bytes()
        != reference.results_path.read_bytes()
    ):
        failures.append(
            "fleet-written results.jsonl differs from the local run"
        )
    else:
        print(
            f"byte-identity: fleet and local results.jsonl match "
            f"({server_campaign.results_path.stat().st_size} bytes)"
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
        if not campaign_spans:
            failures.append(
                "campaign timeline carries no campaign.* spans"
            )
        else:
            print(
                f"span spools ok: {total_spans} spans across "
                f"{len(spool_dirs)} processes, campaign timeline has "
                f"{len(campaign_spans)} campaign spans"
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
