"""Observability consumers: ``python -m repro obs <command>``.

Commands
--------
timeline
    Assemble one Perfetto-loadable fleet timeline from the span spools a
    serving run left behind (``--span-spool-dir``): every process's
    spool becomes its own process track, aligned on the wall clock each
    spool record carries (``wall_end``), with ``--campaign`` narrowing
    the document to one campaign's spans *and* the cross-process trees
    its forwarded points produced.
validate
    Alias for :mod:`repro.obs.validate` (``obs validate --spans DIR``).

The timeline is the *offline* half of the fleet's tracing story: the
router's live ``GET /v1/debug/trace`` merges ring tails while the fleet
is up, the spools survive it — a drained or crashed fleet still yields a
complete timeline from disk.  Both halves share one merger
(:func:`repro.obs.tracing.merge_timelines`) on the host's one wall
clock, so the offline document carries the same process tracks and
cross-process flow events as the live one.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from collections.abc import Sequence
from pathlib import Path
from typing import Any

from repro.obs import logs
from repro.obs.tracing import merge_timelines
from repro.util.jsonout import dump_json

logger = logging.getLogger(__name__)


def _spool_sources(root: str) -> list[tuple[str, str]]:
    """(track name, directory) per spool under ``root``.

    A fleet run leaves one subdirectory per process (``router``,
    ``w0``..); a single-process run spools into ``root`` itself.  The
    router's track leads, workers follow in name order, matching the
    live collector's pid assignment.
    """
    from repro.obs.span_spool import spool_files

    root_path = Path(root)
    if not root_path.is_dir():
        raise OSError(f"span-spool root {root!r} is not a directory")
    if spool_files(root):
        return [(root_path.name or "spool", str(root_path))]
    named = {
        entry.name: str(entry)
        for entry in root_path.iterdir()
        if entry.is_dir() and spool_files(str(entry))
    }
    ordered = [name for name in ("router",) if name in named]
    ordered += sorted(name for name in named if name != "router")
    return [(name, named[name]) for name in ordered]


def _campaign_prefix(campaign_dir: str) -> str:
    """The 12-char campaign tag spans carry, from a registry directory."""
    from repro.campaign import spec as spec_mod

    spec_path = os.path.join(campaign_dir, "spec.json")
    with open(spec_path) as handle:
        spec = json.load(handle)
    return spec_mod.campaign_id(spec)[:12]


def _wall_clock_event(record: dict[str, Any]) -> dict[str, Any]:
    """A spool record as a Chrome event timed in wall-clock µs."""
    event = {
        key: value
        for key, value in record.items()
        if key not in ("schema", "seq", "wall_end")
    }
    event["ts"] = record["wall_end"] * 1_000_000.0 - record["dur"]
    return event


def assemble_timeline(
    spool_root: str, campaign_dir: str | None = None
) -> dict[str, Any]:
    """One merged Chrome-trace document from on-disk span spools.

    Each spool record is a finished ``"X"`` event stamped with the wall
    clock at span end (``wall_end``); the span's wall start is therefore
    ``wall_end - dur``, which is what the shared merger aligns on (ts 0
    at the first recorded span, flows along cross-process edges).  With
    ``campaign_dir``, spans tagged with that campaign select the
    document — plus every span sharing a ``trace_id`` with one of them,
    so a forwarded point's worker-side tree rides along.
    """
    from repro.obs.span_spool import read_spool

    sources = _spool_sources(spool_root)
    if not sources:
        raise OSError(f"no span spools under {spool_root!r}")
    per_source: list[tuple[str, list[dict[str, Any]]]] = [
        (name, list(read_spool(directory))) for name, directory in sources
    ]

    if campaign_dir is not None:
        tag = _campaign_prefix(campaign_dir)
        campaign_traces = {
            record["args"]["trace_id"]
            for _, records in per_source
            for record in records
            if record.get("args", {}).get("campaign") == tag
            and record.get("args", {}).get("trace_id")
        }
        per_source = [
            (
                name,
                [
                    record
                    for record in records
                    if record.get("args", {}).get("campaign") == tag
                    or record.get("args", {}).get("trace_id")
                    in campaign_traces
                ],
            )
            for name, records in per_source
        ]

    document = merge_timelines(
        [
            (name, [_wall_clock_event(record) for record in records])
            for name, records in per_source
        ]
    )
    document["otherData"] = {
        "producer": "repro.obs.cli",
        "alignment": "wall_clock",
    }
    document["sources"] = {name: len(records) for name, records in per_source}
    if campaign_dir is not None:
        document["otherData"]["campaign"] = tag
    return document


def _parse_args(argv: Sequence[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="repro-obs",
        description="Observability consumers (offline timeline assembly).",
    )
    parser.add_argument("-v", "--verbose", action="count", default=0)
    commands = parser.add_subparsers(dest="command", required=True)
    timeline = commands.add_parser(
        "timeline",
        help="merge span spools into one Perfetto timeline",
    )
    timeline.add_argument(
        "--spool",
        required=True,
        metavar="DIR",
        help="span-spool root (a fleet's --span-spool-dir, or one "
        "process's spool directory)",
    )
    timeline.add_argument(
        "--campaign",
        metavar="DIR",
        default=None,
        help="narrow to one campaign's spans (and the cross-process "
        "trees of its forwarded points); DIR is the campaign's registry "
        "subdirectory (the one holding spec.json)",
    )
    timeline.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="write the merged document here (default: stdout)",
    )
    return parser.parse_args(argv)


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit status."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "validate":
        # Wholesale delegation, like `repro campaign` and friends.
        from repro.obs.validate import main as validate_main

        return validate_main(argv[1:])
    args = _parse_args(argv)
    logs.configure(verbosity=args.verbose)
    try:
        document = assemble_timeline(args.spool, args.campaign)
    except (OSError, ValueError, KeyError) as error:
        logger.error("timeline failed: %s", error)
        return 1
    rendered = dump_json(document)
    n_spans = sum(document["sources"].values())
    if args.out:
        Path(args.out).write_text(rendered + "\n", encoding="utf-8")
        print(
            f"wrote {n_spans} spans across {len(document['sources'])} "
            f"process tracks to {args.out}"
        )
    else:
        print(rendered)
    return 0


if __name__ == "__main__":
    sys.exit(main())
