"""Command-line experiment runner.

Examples::

    python -m repro.experiments.runner --all
    python -m repro.experiments.runner figure3 figure4 --quick
    python -m repro.experiments.runner --all --out results/ --jobs 4
    python -m repro.experiments.runner figure1 --quick --out tmp \\
        --trace trace.json --metrics metrics.json -v

``--jobs N`` fans independent experiments out over N worker processes
(``--report`` runs its experiments the same way; a single experiment
runs in process).  Every experiment is deterministic, so results —
including ``--out`` files — are byte-identical for any job count; only
wall-clock changes.  Results print in request order either way.

Observability (see ``docs/OBSERVABILITY.md``):

* ``--trace FILE`` records spans into a Chrome-trace JSON (open in
  Perfetto); worker processes get their own thread tracks.
* ``--metrics FILE`` writes the aggregated counters/histograms.  Workers
  collect per-experiment snapshots that the parent merges in request
  order, so the aggregate is byte-identical for any ``--jobs N``.
* every ``--out`` run additionally writes ``<id>.meta.json`` — a run
  manifest with config, seeds, engine path, the Eq. (2) cycle
  breakdown, and the per-experiment metrics snapshot.
* ``-v`` / ``-vv`` / ``--log-level`` control diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import logging
import time
from collections.abc import Sequence
from typing import Any

from repro.experiments.base import ExperimentResult
from repro.experiments.registry import EXPERIMENTS, run_experiment
from repro.obs import logs, manifest, metrics, tracing
from repro.obs import profile as profile_mod

logger = logging.getLogger(__name__)


def _parse_args(argv: Sequence[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Regenerate the tables and figures of 'A Unified Architectural "
            "Tradeoff Methodology' (Chen & Somani, ISCA 1994)."
        ),
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        metavar="ID",
        help=f"experiment ids to run (available: {', '.join(EXPERIMENTS)})",
    )
    parser.add_argument("--all", action="store_true", help="run every experiment")
    parser.add_argument(
        "--quick",
        action="store_true",
        help="smaller traces and sparser sweeps (seconds instead of minutes)",
    )
    parser.add_argument(
        "--out",
        metavar="DIR",
        help="also write <id>.txt, <id>.csv and a <id>.meta.json run "
        "manifest into DIR",
    )
    parser.add_argument("--list", action="store_true", help="list experiment ids")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for independent experiments (default: 1); "
        "results are identical for any N",
    )
    parser.add_argument(
        "--report",
        metavar="FILE",
        help="run the paper experiments, check every claim, write a "
        "markdown reproduction scorecard to FILE, and print it",
    )
    parser.add_argument(
        "--no-events-cache",
        action="store_true",
        help="disable the on-disk event-stream cache for this run "
        "(results are identical either way; see docs/ENGINE.md)",
    )
    parser.add_argument(
        "--profile",
        nargs="?",
        const=profile_mod.DEFAULT_HZ,
        default=None,
        type=int,
        metavar="HZ",
        help="sample wall-clock stacks during each experiment (default "
        f"{profile_mod.DEFAULT_HZ} Hz; spell a custom rate --profile=HZ) "
        "and write a span-attributed <id>.profile.json beside the "
        "manifest; requires --out",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help="record spans into a Chrome-trace JSON (view in Perfetto)",
    )
    parser.add_argument(
        "--metrics",
        metavar="FILE",
        help="write the aggregated metrics snapshot as JSON",
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
    args = parser.parse_args(argv)
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    if args.profile is not None:
        if not 1 <= args.profile <= 1000:
            parser.error(
                f"--profile must be within [1, 1000] Hz, got {args.profile}"
            )
        if not args.out and not args.report and not args.list:
            parser.error("--profile writes <id>.profile.json, so it needs --out")
    return args


@functools.cache
def _malloc_trim():
    """glibc's ``int malloc_trim(size_t)``, or None where the C library
    lacks it."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return trim


def _release_heap() -> None:
    """Hand freed heap back to the operating system.

    glibc keeps freed small-object heap mapped, so without a trim the
    peak RSS of ``--all`` follows whatever the allocation order of the
    earlier experiments left behind.  A no-op elsewhere.
    """
    trim = _malloc_trim()
    if trim is not None:
        trim(0)


def _run_one(
    experiment_id: str,
    quick: bool,
    with_tracing: bool = False,
    with_metrics: bool = False,
    worker: bool = False,
    profile_hz: int | None = None,
) -> tuple[
    ExperimentResult,
    float,
    dict[str, Any] | None,
    list | None,
    dict[str, Any] | None,
]:
    """Run one experiment; returns (result, seconds, metrics, spans, profile).

    Top-level so it pickles for :class:`ProcessPoolExecutor`.  Every
    experiment starts cold: the phase-1 memos are cleared first (and the
    heap they held handed back), so no experiment's streams stay resident
    through the next, and a collected snapshot (a fresh metrics registry
    per experiment) describes a cold start regardless of process reuse —
    sequential and worker runs produce identical snapshots.
    ``worker`` marks a pool-process call: a fresh local tracer is
    installed (a forked child would otherwise append to its useless copy
    of the parent's tracer) and its events are returned for the parent
    to adopt; in the parent, spans land on the already-active tracer.

    ``profile_hz`` wraps the experiment in a :class:`SamplingProfiler`
    window (one per experiment, so with ``--jobs N`` each worker process
    samples itself) and returns the plain-dict profile document.
    """
    local_tracer = None
    if with_tracing and worker:
        local_tracer = tracing.enable_tracing(name=f"worker:{experiment_id}")
    registry = None
    if with_metrics:
        registry = metrics.enable_metrics()
    # Cold-start the phase-1 memos, and hand back the heap they held, so
    # no experiment keeps another's streams resident and the collected
    # spans/counters describe this experiment completely and
    # independently of what ran earlier in the process (or of the job
    # count).
    from repro.experiments._phi import clear_caches

    clear_caches()
    _release_heap()
    profiler = None
    if profile_hz is not None:
        profiler = profile_mod.SamplingProfiler(hz=profile_hz).start()
    started = time.perf_counter()
    try:
        with tracing.span("runner.run", experiment=experiment_id, quick=quick):
            result = run_experiment(experiment_id, quick=quick)
    finally:
        if profiler is not None:
            profiler.stop()
    elapsed = time.perf_counter() - started
    profile_document = profiler.document() if profiler is not None else None
    snapshot = None
    if registry is not None:
        snapshot = registry.snapshot()
        metrics.disable_metrics()
    events = None
    if local_tracer is not None:
        events = local_tracer.events
        tracing.disable_tracing()
    return result, elapsed, snapshot, events, profile_document


def run_experiments(
    ids: Sequence[str],
    quick: bool,
    jobs: int = 1,
    with_tracing: bool = False,
    with_metrics: bool = False,
    profile_hz: int | None = None,
) -> list:
    """:func:`_run_one` outcomes for ``ids``, in request order.

    With ``jobs > 1`` and more than one id, whole experiments fan out
    across worker processes; futures are consumed in request order, so
    stdout, ``--out`` files and merged metrics match a sequential run.
    """
    if jobs > 1 and len(ids) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, len(ids))) as pool:
            futures = [
                pool.submit(
                    _run_one,
                    experiment_id,
                    quick,
                    with_tracing,
                    with_metrics,
                    True,
                    profile_hz,
                )
                for experiment_id in ids
            ]
            return [future.result() for future in futures]
    return [
        _run_one(
            experiment_id,
            quick,
            with_tracing,
            with_metrics,
            profile_hz=profile_hz,
        )
        for experiment_id in ids
    ]


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; returns a process exit status."""
    args = _parse_args(argv)
    logs.configure(verbosity=args.verbose, level=args.log_level)
    if args.no_events_cache:
        # Via the environment so --jobs worker processes inherit it.
        import os

        from repro.cache.events_store import EVENTS_CACHE_ENV

        os.environ[EVENTS_CACHE_ENV] = "0"
    if args.list:
        for experiment_id in EXPERIMENTS:
            print(experiment_id)
        return 0
    if args.report:
        from repro.experiments.report import write_report

        path = write_report(args.report, quick=args.quick, jobs=args.jobs)
        print(path.read_text())
        print(f"[report written to {path}]")
        return 0
    ids = list(EXPERIMENTS) if args.all else args.experiments
    if not ids:
        logger.error("nothing to run: pass experiment ids or --all")
        return 2
    unknown = [i for i in ids if i not in EXPERIMENTS]
    if unknown:
        logger.error(
            "unknown experiment(s): %s; available: %s",
            ", ".join(unknown),
            ", ".join(EXPERIMENTS),
        )
        return 2

    # Collection plan: tracing follows --trace; metrics are needed for a
    # --metrics file and for the manifest every --out run writes.  While
    # metrics are on, each experiment starts from cleared phase-1 memos
    # so its counts are complete and job-count independent.
    with_tracing = bool(args.trace)
    with_metrics = bool(args.metrics or args.out)
    tracer = tracing.enable_tracing() if with_tracing else None
    aggregate = metrics.MetricsRegistry() if with_metrics else None
    logger.info(
        "running %d experiment(s) with jobs=%d quick=%s tracing=%s metrics=%s",
        len(ids),
        args.jobs,
        args.quick,
        with_tracing,
        with_metrics,
    )

    outcomes = run_experiments(
        ids, args.quick, args.jobs, with_tracing, with_metrics, args.profile
    )
    if tracer is not None:
        for worker_tid, (experiment_id, outcome) in enumerate(
            zip(ids, outcomes), start=1
        ):
            events = outcome[3]
            if events:
                tracer.adopt(
                    events, tid=worker_tid, name=f"worker:{experiment_id}"
                )

    status = 0
    for experiment_id, (result, elapsed, snapshot, _events, profile_doc) in zip(
        ids, outcomes
    ):
        logger.info("%s finished in %.1fs", experiment_id, elapsed)
        print(result.render())
        print(f"[{experiment_id} finished in {elapsed:.1f}s]")
        print()
        if aggregate is not None and snapshot is not None:
            aggregate.merge(snapshot)
        if args.out:
            written = result.save(args.out)
            manifest_path = manifest.write_manifest(
                args.out,
                experiment_id,
                manifest.build_manifest(
                    experiment_id=experiment_id,
                    title=result.title,
                    quick=args.quick,
                    jobs=args.jobs,
                    seed=_default_seed(),
                    n_instructions=_instruction_count(args.quick),
                    wall_time_s=elapsed,
                    outputs=[path.name for path in written],
                    metrics_snapshot=snapshot,
                ),
            )
            extra = [manifest_path]
            if profile_doc is not None:
                from pathlib import Path

                from repro.util.jsonout import write_json

                extra.append(
                    write_json(
                        Path(args.out) / f"{experiment_id}.profile.json",
                        profile_doc,
                    )
                )
            for path in (*written, *extra):
                print(f"  wrote {path}")

    if args.metrics and aggregate is not None:
        from repro.util.jsonout import write_json

        metrics_path = write_json(
            args.metrics,
            {"schema": metrics.SNAPSHOT_SCHEMA, **aggregate.snapshot()},
        )
        print(f"[metrics written to {metrics_path}]")
    if tracer is not None:
        tracing.disable_tracing()
        trace_path = tracer.write(args.trace)
        print(f"[trace written to {trace_path}; open in https://ui.perfetto.dev]")
    return status


def _default_seed() -> int:
    from repro.experiments._phi import DEFAULT_SEED

    return DEFAULT_SEED


def _instruction_count(quick: bool) -> int:
    from repro.experiments._phi import FULL_INSTRUCTIONS, QUICK_INSTRUCTIONS

    return QUICK_INSTRUCTIONS if quick else FULL_INSTRUCTIONS


if __name__ == "__main__":
    raise SystemExit(main())
