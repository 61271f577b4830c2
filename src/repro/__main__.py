"""Unified command-line interface: ``python -m repro <command>``.

Commands
--------
experiments
    Regenerate paper tables/figures (same as ``repro.experiments.runner``).
advise
    Rank architectural features for a design brief (Section 5.3 as a tool).
generate-trace
    Write a synthetic workload trace to a file.
characterize
    Extract the Table 1 parameters {E, R, W, alpha} (and optionally phi)
    from a trace file against a cache configuration.
simulate
    Run a trace file through the timing simulator and report cycles.
sweep
    Evaluate a feature's traded hit ratio over custom parameter grids.
serve
    Start the HTTP/JSON tradeoff-query server (see ``docs/SERVICE.md``).
campaign
    Declarative sweep campaigns: submit, resume, diff, promote
    (see ``docs/CAMPAIGNS.md``).
cache
    Offline store maintenance (``cache gc --budget-mib N``) for the
    events / reuse-profile / result stores.
obs
    Observability consumers: ``obs timeline`` assembles an offline
    fleet timeline from span spools (see ``docs/OBSERVABILITY.md``);
    ``obs validate`` is an alias for ``repro.obs.validate``.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence

from repro.analysis.characterize import characterize
from repro.analysis.design_advisor import DesignBrief, recommend
from repro.analysis.short_levy import short_levy_curve
from repro.cache.cache import CacheConfig
from repro.core.params import SystemConfig
from repro.core.stalling import StallPolicy
from repro.cpu.replay import simulate
from repro.memory.mainmem import MainMemory
from repro.memory.pipelined import PipelinedMemory
from repro.obs import logs, metrics, tracing
from repro.trace.io import read_trace, write_trace
from repro.trace.markov import three_phase_example
from repro.trace.spec92 import SPEC92_PROFILES, spec92_trace


def _add_cache_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cache-bytes", type=int, default=8192)
    parser.add_argument("--line-size", type=int, default=32)
    parser.add_argument("--associativity", type=int, default=2)


def _add_memory_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--bus-width", type=int, default=4)
    parser.add_argument("--memory-cycle", type=float, default=8.0)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="diagnostics on stderr (-v info, -vv debug)",
    )
    parser.add_argument(
        "--log-level",
        metavar="LEVEL",
        help="explicit log level (debug/info/warning/error); wins over -v",
    )
    parser.add_argument(
        "--trace",
        dest="trace_out",
        metavar="FILE",
        help="record spans into a Chrome-trace JSON (view in Perfetto)",
    )
    parser.add_argument(
        "--metrics",
        dest="metrics_out",
        metavar="FILE",
        help="write the collected metrics snapshot as JSON",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    experiments = commands.add_parser(
        "experiments", help="regenerate paper tables/figures"
    )
    experiments.add_argument("args", nargs=argparse.REMAINDER)

    advise = commands.add_parser("advise", help="rank features for a design")
    _add_memory_arguments(advise)
    advise.add_argument("--line-size", type=int, default=32)
    advise.add_argument("--cache-kib", type=int, default=8)
    advise.add_argument("--turnaround", type=float, default=2.0)
    advise.add_argument(
        "--stall-factor",
        type=float,
        default=None,
        help="trace-measured phi enabling the partially-stalling row",
    )

    generate = commands.add_parser("generate-trace", help="write a trace file")
    generate.add_argument("output", help="trace file path")
    generate.add_argument(
        "--workload",
        default="swm256",
        choices=[*SPEC92_PROFILES, "markov3"],
    )
    generate.add_argument("--instructions", type=int, default=50_000)
    generate.add_argument("--seed", type=int, default=0)

    character = commands.add_parser(
        "characterize", help="extract Table 1 parameters from a trace"
    )
    character.add_argument("trace", help="trace file path")
    _add_cache_arguments(character)
    _add_memory_arguments(character)
    character.add_argument(
        "--measure-phi",
        action="store_true",
        help="also measure BNL1/BNL3 stalling factors (slower)",
    )

    sweep_cmd = commands.add_parser(
        "sweep", help="sweep a feature's traded hit ratio over parameters"
    )
    sweep_cmd.add_argument(
        "feature",
        choices=["doubling-bus", "write-buffers", "pipelined-memory"],
    )
    sweep_cmd.add_argument(
        "--range",
        dest="ranges",
        action="append",
        default=[],
        metavar="NAME=SPEC",
        help="e.g. --range memory_cycle=2:20:2 --range line_size=8,16,32",
    )
    sweep_cmd.add_argument("--out", help="write the sweep CSV to this file")

    simulate = commands.add_parser("simulate", help="cycle-count a trace")
    simulate.add_argument("trace", help="trace file path")
    _add_cache_arguments(simulate)
    _add_memory_arguments(simulate)
    simulate.add_argument(
        "--policy",
        default="FS",
        choices=[policy.value for policy in StallPolicy],
    )
    simulate.add_argument("--stall-factor", type=float, default=None)
    simulate.add_argument("--write-buffer-depth", type=int, default=None)
    simulate.add_argument(
        "--pipelined-q",
        type=float,
        default=None,
        help="use a pipelined memory with this turnaround",
    )

    serve = commands.add_parser(
        "serve", help="start the HTTP/JSON tradeoff-query server"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8472)
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        help="max simulate requests queued or computing before 429s",
    )
    serve.add_argument(
        "--result-cache-mib",
        type=float,
        default=8.0,
        help="byte budget for the in-process result cache",
    )
    serve.add_argument(
        "--default-deadline-s",
        type=float,
        default=30.0,
        help="deadline for requests that do not send deadline_ms",
    )
    serve.add_argument(
        "--access-log",
        metavar="FILE",
        default=None,
        help="append one JSONL access-log line per served request",
    )
    serve.add_argument(
        "--span-ring-capacity",
        type=int,
        default=4096,
        help="bounded span ring for /v1/debug/trace (0 disables)",
    )
    serve.add_argument(
        "--span-spool-dir",
        metavar="DIR",
        default=None,
        help="spool finished spans to checksummed JSONL under this "
        "directory (fleet: one subdirectory per process; merge with "
        "`repro obs timeline --spool DIR`)",
    )
    serve.add_argument(
        "--profile-max-seconds",
        type=float,
        default=10.0,
        help="longest /v1/debug/profile sampling window accepted",
    )
    serve.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes; >1 runs the sharded fleet "
        "(default: the machine's CPU count)",
    )
    serve.add_argument(
        "--worker-id",
        default=None,
        help=argparse.SUPPRESS,  # set by the fleet router on its workers
    )
    serve.add_argument(
        "--keepalive-timeout",
        type=float,
        default=75.0,
        help="close idle keep-alive connections after this many seconds "
        "(0 disables the timeout)",
    )
    serve.add_argument(
        "--shed-watermark",
        type=int,
        default=None,
        help="shed cache-miss simulate work with 429 once the batch "
        "queue is this deep (default: no admission control)",
    )
    serve.add_argument(
        "--disk-cache-dir",
        metavar="DIR",
        default=None,
        help="enable the disk-backed result cache in this directory "
        "(shared across fleet workers; survives restarts)",
    )
    serve.add_argument(
        "--disk-cache-mib",
        type=float,
        default=64.0,
        help="byte budget for the disk-backed result cache",
    )
    serve.add_argument(
        "--campaign-dir",
        metavar="DIR",
        default=None,
        help="enable the /v1/campaigns endpoints with this registry "
        "directory (campaigns run in the server as background work)",
    )
    return parser


def _cmd_experiments(options: argparse.Namespace) -> int:
    from repro.experiments.runner import main as runner_main

    return runner_main(options.args)


def _cmd_advise(options: argparse.Namespace) -> int:
    brief = DesignBrief(
        config=SystemConfig(
            options.bus_width,
            options.line_size,
            options.memory_cycle,
            pipeline_turnaround=options.turnaround,
        ),
        cache_bytes=options.cache_kib * 1024,
        hit_ratio_curve=short_levy_curve(),
        measured_stall_factor=options.stall_factor,
    )
    print(
        f"Design: D={options.bus_width} B, L={options.line_size} B, "
        f"beta_m={options.memory_cycle:g}, {options.cache_kib}K cache "
        f"(HR {brief.base_hit_ratio:.2%})"
    )
    for rank, rec in enumerate(recommend(brief), start=1):
        print(f"  {rank}. {rec.summary}")
    return 0


def _cmd_generate_trace(options: argparse.Namespace) -> int:
    if options.workload == "markov3":
        trace = three_phase_example().build(options.instructions, options.seed)
    else:
        trace = spec92_trace(options.workload, options.instructions, options.seed)
    count = write_trace(options.output, trace)
    print(f"wrote {count} instructions to {options.output}")
    return 0


def _cache_config(options: argparse.Namespace) -> CacheConfig:
    return CacheConfig(
        total_bytes=options.cache_bytes,
        line_size=options.line_size,
        associativity=options.associativity,
    )


def _cmd_characterize(options: argparse.Namespace) -> int:
    trace = list(read_trace(options.trace))
    policies = (StallPolicy.BUS_NOT_LOCKED_1, StallPolicy.BUS_NOT_LOCKED_3)
    run = characterize(
        trace,
        _cache_config(options),
        measure_phi=options.measure_phi,
        policies=policies,
        memory_cycle=options.memory_cycle,
        bus_width=options.bus_width,
    )
    workload = run.workload
    print(f"E      = {workload.instructions:.0f} instructions")
    print(f"R      = {workload.read_bytes:.0f} bytes")
    print(f"W      = {workload.write_around_misses:.0f} write-around misses")
    print(f"alpha  = {workload.flush_ratio:.3f}")
    print(f"refs   = {run.references} (HR {run.hit_ratio:.2%})")
    for policy, phi in run.stall_factors.items():
        print(f"phi[{policy.value}] = {phi:.3f}")
    return 0


def _cmd_simulate(options: argparse.Namespace) -> int:
    trace = list(read_trace(options.trace))
    if options.pipelined_q is not None:
        memory = PipelinedMemory(
            options.memory_cycle, options.bus_width, options.pipelined_q
        )
    else:
        memory = MainMemory(options.memory_cycle, options.bus_width)
    # One call site for both engines: the two-phase replay when the
    # configuration supports it, the step-simulator oracle otherwise
    # (identical results either way — the equivalence suite pins it).
    result = simulate(
        trace,
        _cache_config(options),
        memory,
        policy=StallPolicy(options.policy),
        write_buffer_depth=options.write_buffer_depth,
    )
    ld = options.line_size // options.bus_width
    print(f"instructions    = {result.instructions}")
    print(f"cycles          = {result.cycles:.0f}  (CPI {result.cpi:.3f})")
    print(f"read-miss stall = {result.read_miss_stall_cycles:.0f}")
    print(f"flush stall     = {result.flush_stall_cycles:.0f}")
    print(f"write stall     = {result.write_stall_cycles:.0f}")
    print(f"line fills      = {result.line_fills}")
    print(
        f"phi             = {result.stall_factor:.3f} "
        f"({result.stall_percentage(ld):.1f}% of L/D)"
    )
    return 0


def _cmd_sweep(options: argparse.Namespace) -> int:
    from repro.core.features import ArchFeature
    from repro.experiments.sweep import parse_range, records_to_csv, sweep

    ranges = {}
    for spec in options.ranges:
        if "=" not in spec:
            print(f"bad --range {spec!r}: expected NAME=SPEC", file=sys.stderr)
            return 2
        name, values = spec.split("=", 1)
        ranges[name.strip()] = parse_range(values)
    if not ranges:
        ranges = {"memory_cycle": parse_range("2:20:2")}
    records = sweep(ArchFeature(options.feature), ranges)
    csv_text = records_to_csv(records)
    if options.out:
        from pathlib import Path

        Path(options.out).write_text(csv_text)
        print(f"wrote {len(records)} grid points to {options.out}")
    else:
        print(csv_text, end="")
    return 0


def _cmd_serve(options: argparse.Namespace) -> int:
    import os

    from repro.service.server import ServerConfig, run_server

    workers = options.workers if options.workers is not None else os.cpu_count() or 1
    if workers < 1:
        print(f"error: --workers must be >= 1, got {workers}", file=sys.stderr)
        return 2
    config = ServerConfig(
        host=options.host,
        port=options.port,
        queue_limit=options.queue_limit,
        result_cache_bytes=int(options.result_cache_mib * 1024 * 1024),
        default_deadline_s=options.default_deadline_s,
        access_log_path=options.access_log,
        span_ring_capacity=options.span_ring_capacity,
        span_spool_dir=options.span_spool_dir,
        profile_max_seconds=options.profile_max_seconds,
        keepalive_timeout_s=(
            options.keepalive_timeout if options.keepalive_timeout > 0 else None
        ),
        shed_watermark=options.shed_watermark,
        worker_id=options.worker_id,
        disk_cache_dir=options.disk_cache_dir,
        disk_cache_bytes=int(options.disk_cache_mib * 1024 * 1024),
        campaign_dir=options.campaign_dir,
    )
    if workers > 1:
        from repro.service.router import FleetConfig, run_fleet

        run_fleet(FleetConfig(base=config, workers=workers))
    else:
        run_server(config)
    return 0


_COMMANDS = {
    "experiments": _cmd_experiments,
    "sweep": _cmd_sweep,
    "advise": _cmd_advise,
    "generate-trace": _cmd_generate_trace,
    "characterize": _cmd_characterize,
    "simulate": _cmd_simulate,
    "serve": _cmd_serve,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit status."""
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    if argv and argv[0] == "experiments":
        # Delegate wholesale — the runner owns its option parsing
        # (including --trace/--metrics/-v), and argparse's REMAINDER
        # cannot capture leading options like --list.
        from repro.experiments.runner import main as runner_main

        return runner_main(argv[1:])
    if argv and argv[0] == "campaign":
        # Same wholesale delegation: the campaign CLI owns its parsing.
        from repro.campaign.cli import main as campaign_main

        return campaign_main(argv[1:])
    if argv and argv[0] == "cache":
        from repro.util.store_gc import main as cache_main

        return cache_main(argv[1:])
    if argv and argv[0] == "obs":
        # Observability consumers (timeline assembly, validation) own
        # their parsing, like the other delegated sub-CLIs.
        from repro.obs.cli import main as obs_main

        return obs_main(argv[1:])
    options = _build_parser().parse_args(argv)
    logs.configure(verbosity=options.verbose, level=options.log_level)
    tracer = tracing.enable_tracing() if options.trace_out else None
    registry = metrics.enable_metrics() if options.metrics_out else None
    try:
        status = _COMMANDS[options.command](options)
    finally:
        if registry is not None:
            from repro.util.jsonout import write_json

            metrics.disable_metrics()
            path = write_json(
                options.metrics_out,
                {"schema": metrics.SNAPSHOT_SCHEMA, **registry.snapshot()},
            )
            print(f"[metrics written to {path}]")
        if tracer is not None:
            tracing.disable_tracing()
            path = tracer.write(options.trace_out)
            print(
                f"[trace written to {path}; open in https://ui.perfetto.dev]"
            )
    return status


if __name__ == "__main__":
    raise SystemExit(main())
