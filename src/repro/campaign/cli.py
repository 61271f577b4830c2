"""``python -m repro campaign`` — the campaign command line.

Subcommands::

    submit SPEC.json     register a spec and run it to completion
    resume REF           continue an interrupted campaign
    status REF           one campaign's progress
    list                 every registered campaign
    diff A B             cohort comparison (campaigns or baselines)
    promote REF NAME     pin a completed campaign as a named baseline

``REF`` is a campaign id, a unique id prefix, or a unique spec name.
The registry directory defaults to ``~/.cache/repro/campaigns``
(``$XDG_CACHE_HOME`` aware), overridden by ``--registry`` or the
``REPRO_CAMPAIGN_DIR`` environment variable.

``--via-service URL`` switches the executor from in-process simulation
to a running server or fleet: whole pending cache columns stream
through ``/v1/sweep``, stragglers go through ``/v1/simulate``, and a
cut connection or truncated stream re-plans the pending points from the
campaign's own state.  Either way the registry contents are
byte-identical — same content-addressed artifacts, same
``results.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any
from urllib.parse import urlparse

from repro.campaign import compare, executor
from repro.campaign.registry import (
    CampaignRegistry,
    resolve_registry_dir,
)
from repro.campaign.spec import SchemaError
from repro.util.jsonout import dump_json


def _registry_of(options: argparse.Namespace) -> CampaignRegistry:
    return CampaignRegistry(resolve_registry_dir(options.registry))


def _client_of(url: str) -> Any:
    parsed = urlparse(url if "//" in url else f"http://{url}")
    if parsed.hostname is None or parsed.port is None:
        raise SystemExit(
            f"error: --via-service needs host:port, got {url!r}"
        )
    from repro.service.client import ServiceClient

    return ServiceClient(parsed.hostname, parsed.port)


def _run(
    options: argparse.Namespace, campaign: Any
) -> dict[str, Any]:
    client = (
        _client_of(options.via_service)
        if getattr(options, "via_service", None)
        else None
    )

    def narrate(progress: dict[str, Any]) -> None:
        print(
            f"  checkpoint: {progress['done']}/{progress['points']} done, "
            f"{progress['errors']} errors, {progress['pending']} pending",
            file=sys.stderr,
        )

    try:
        return executor.run_campaign(
            campaign,
            chunk_size=options.chunk_size,
            max_chunks=options.max_chunks,
            retry_errors=getattr(options, "retry_errors", False),
            client=client,
            progress=narrate if not options.quiet else None,
        )
    finally:
        if client is not None:
            client.close()


def _print_report(report: dict[str, Any], as_json: bool) -> None:
    if as_json:
        print(dump_json(report))
        return
    progress = report["progress"]
    state = "complete" if progress["complete"] else "interrupted"
    print(
        f"campaign {report['campaign'][:12]} {state}: "
        f"{progress['done']}/{progress['points']} done "
        f"({report['simulated']} simulated, {report['reused']} reused, "
        f"{progress['errors']} errors, {progress['excluded']} excluded, "
        f"{progress['pending']} pending; {report['chunks']} checkpoints)"
    )


def _cmd_submit(options: argparse.Namespace) -> int:
    try:
        document = json.loads(
            sys.stdin.read()
            if options.spec == "-"
            else open(options.spec, encoding="utf-8").read()
        )
    except (OSError, ValueError) as error:
        print(f"error: cannot read spec: {error}", file=sys.stderr)
        return 2
    registry = _registry_of(options)
    try:
        campaign, created = registry.submit(document)
    except SchemaError as error:
        print(f"error: invalid campaign spec: {error}", file=sys.stderr)
        return 2
    verb = "registered" if created else "already registered"
    print(f"campaign {campaign.id[:12]} {verb} ({campaign.points} points)")
    if options.no_run:
        return 0
    report = _run(options, campaign)
    _print_report(report, options.json)
    return 0 if report["progress"]["complete"] else 3


def _cmd_resume(options: argparse.Namespace) -> int:
    registry = _registry_of(options)
    try:
        campaign = registry.find(options.ref)
    except KeyError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    report = _run(options, campaign)
    _print_report(report, options.json)
    return 0 if report["progress"]["complete"] else 3


def _cmd_status(options: argparse.Namespace) -> int:
    registry = _registry_of(options)
    try:
        campaign = registry.find(options.ref)
    except KeyError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    view = campaign.describe()
    if options.json:
        print(dump_json(view))
        return 0
    progress = view["progress"]
    name = f" ({view['name']})" if "name" in view else ""
    print(f"campaign {view['campaign']}{name}")
    grid = view["grid"]
    print(
        f"  grid: {grid['traces']} traces x {grid['caches']} caches x "
        f"{grid['policies']} policies x {grid['memory_cycles']} betas "
        f"= {progress['points']} points"
    )
    print(
        f"  progress: {progress['done']} done, {progress['errors']} errors, "
        f"{progress['excluded']} excluded, {progress['pending']} pending"
        + (" [complete]" if progress["complete"] else "")
    )
    return 0


def _cmd_list(options: argparse.Namespace) -> int:
    registry = _registry_of(options)
    views = registry.list()
    if options.json:
        print(dump_json({"campaigns": views, "baselines": registry.baselines()}))
        return 0
    if not views:
        print(f"no campaigns in {registry.root}")
    for view in views:
        progress = view["progress"]
        name = f"  {view['name']}" if "name" in view else ""
        state = "complete" if progress["complete"] else (
            f"{progress['pending']} pending"
        )
        print(
            f"{view['campaign'][:12]}  "
            f"{progress['done']}/{progress['points']} done  {state}{name}"
        )
    baselines = registry.baselines()
    for doc in baselines:
        print(
            f"baseline {doc['name']}: campaign {doc['campaign'][:12]}, "
            f"{doc['done']}/{doc['points']} points"
        )
    return 0


def _cmd_diff(options: argparse.Namespace) -> int:
    registry = _registry_of(options)
    try:
        label_a, spec_a, cohort_a = compare.resolve_cohort(registry, options.a)
        label_b, spec_b, cohort_b = compare.resolve_cohort(registry, options.b)
    except KeyError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    report = compare.diff_cohorts(
        spec_a,
        cohort_a,
        spec_b,
        cohort_b,
        include_hit_ratio=not options.no_hit_ratio,
    )
    if options.json:
        print(dump_json({"a": label_a, "b": label_b, **report}))
    else:
        print(compare.render_diff(label_a, label_b, report))
    return 0


def _cmd_promote(options: argparse.Namespace) -> int:
    registry = _registry_of(options)
    try:
        campaign = registry.find(options.ref)
    except KeyError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    try:
        target = registry.promote(campaign, options.name, force=options.force)
    except FileExistsError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except (RuntimeError, SchemaError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 3
    print(
        f"baseline {options.name}: campaign {campaign.id[:12]} "
        f"pinned at {target}"
    )
    return 0


def _add_registry_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--registry",
        metavar="DIR",
        default=None,
        help="campaign registry directory "
        "(default ~/.cache/repro/campaigns; env REPRO_CAMPAIGN_DIR wins)",
    )


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--via-service",
        metavar="URL",
        default=None,
        help="drive points through a running server/fleet "
        "(http://host:port) instead of simulating in-process",
    )
    parser.add_argument(
        "--chunk-size",
        type=int,
        default=executor.DEFAULT_CHUNK,
        help="points per checkpoint",
    )
    parser.add_argument(
        "--max-chunks",
        type=int,
        default=None,
        help="stop after N checkpoints (deterministic partial run)",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress checkpoint narration"
    )
    parser.add_argument(
        "--json", action="store_true", help="machine-readable report"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro campaign",
        description="declarative sweep campaigns: submit, resume, compare",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    submit = commands.add_parser(
        "submit", help="register a campaign spec and run it"
    )
    submit.add_argument("spec", help="path to the spec JSON ('-' for stdin)")
    submit.add_argument(
        "--no-run",
        action="store_true",
        help="register only; run later with 'campaign resume'",
    )
    _add_registry_argument(submit)
    _add_run_arguments(submit)

    resume = commands.add_parser(
        "resume", help="continue an interrupted campaign"
    )
    resume.add_argument("ref", help="campaign id, id prefix, or name")
    resume.add_argument(
        "--retry-errors",
        action="store_true",
        help="clear errored points back to pending first",
    )
    _add_registry_argument(resume)
    _add_run_arguments(resume)

    status = commands.add_parser("status", help="one campaign's progress")
    status.add_argument("ref", help="campaign id, id prefix, or name")
    status.add_argument("--json", action="store_true")
    _add_registry_argument(status)

    list_cmd = commands.add_parser("list", help="every registered campaign")
    list_cmd.add_argument("--json", action="store_true")
    _add_registry_argument(list_cmd)

    diff = commands.add_parser(
        "diff", help="compare two cohorts (campaigns or baselines)"
    )
    diff.add_argument("a", help="baseline side (campaign ref or baseline name)")
    diff.add_argument("b", help="candidate side (campaign ref or baseline name)")
    diff.add_argument(
        "--no-hit-ratio",
        action="store_true",
        help="skip the events-store hit-ratio recovery",
    )
    diff.add_argument("--json", action="store_true")
    _add_registry_argument(diff)

    promote = commands.add_parser(
        "promote", help="pin a completed campaign as a named baseline"
    )
    promote.add_argument("ref", help="campaign id, id prefix, or name")
    promote.add_argument("name", help="baseline name")
    promote.add_argument(
        "--force", action="store_true", help="replace an existing baseline"
    )
    _add_registry_argument(promote)

    return parser


_SUBCOMMANDS = {
    "submit": _cmd_submit,
    "resume": _cmd_resume,
    "status": _cmd_status,
    "list": _cmd_list,
    "diff": _cmd_diff,
    "promote": _cmd_promote,
}


def main(argv: list[str] | None = None) -> int:
    options = build_parser().parse_args(argv)
    try:
        return _SUBCOMMANDS[options.command](options)
    except BrokenPipeError:
        # Downstream pager/head closed the pipe; exit quietly like a
        # well-behaved filter.
        import os

        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
