"""CLI: append bench scoreboards to a history log and gate regressions.

The committed ``BENCH_engine.json`` / ``BENCH_service.json`` scoreboards
pin the current performance envelope, but nothing watched their
*trajectory*: a slow drift (or a one-commit cliff) in a headline metric
shipped silently as long as the schema still validated.  This gate
closes that hole:

``python -m repro.obs.bench_history``
    validates both scoreboards, extracts the pinned
    :data:`HEADLINE_METRICS`, compares each against the median of its
    recent history (up to the last :data:`BASELINE_DEPTH` entries of
    ``results/bench_history.jsonl``), and **exits 2** when any
    lower-is-better metric regresses by more than
    :data:`REGRESSION_THRESHOLD` (or a higher-is-better metric drops by
    the same fraction).  On a pass, the run is appended to the history
    (a failing run is *not* appended, so one regression cannot poison
    the baseline it will be re-judged against after a fix).

``--check``
    read-only mode for CI: gate against the committed history without
    appending.  An empty or missing history passes trivially — the
    first appended entry seeds the baseline.

The median-of-recent-history baseline keeps the gate robust to one
noisy entry while still tracking genuine improvements: after a real
speedup is committed a few times, the baseline follows it down and the
old, slower numbers age out of the window.
"""

from __future__ import annotations

import argparse
import json
import logging
import statistics
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Any

from repro.obs import logs, manifest
from repro.obs.schemas import (
    BENCH_HISTORY_SCHEMA,
    SchemaError,
    validate_bench_engine,
    validate_bench_history_entry,
    validate_bench_service,
)
from repro.util.jsonout import dump_json_line

logger = logging.getLogger(__name__)

#: A candidate metric must stay within this fraction of its baseline
#: (lower-is-better: at most ``baseline * (1 + threshold)``;
#: higher-is-better: at least ``baseline * (1 - threshold)``).
REGRESSION_THRESHOLD = 0.25

#: How many of the most recent history entries feed the median baseline.
BASELINE_DEPTH = 10

#: Phase-level deltas printed per source in an exit-2 attribution.
ATTRIBUTION_TOP = 5


@dataclass(frozen=True)
class HeadlineMetric:
    """One gated scoreboard metric."""

    name: str
    source: str  # "engine" | "service"
    path: tuple[str, ...]
    direction: str  # "lower" | "higher"


#: The pinned metrics the gate watches.  Names are stable history keys;
#: paths index into the matching scoreboard document.
HEADLINE_METRICS: tuple[HeadlineMetric, ...] = (
    HeadlineMetric(
        "engine.phase1_extract_60k_s",
        "engine",
        ("benchmarks", "phase1_extract_60k_s"),
        "lower",
    ),
    HeadlineMetric(
        "engine.phase1_reuse_s",
        "engine",
        ("benchmarks", "phase1_reuse_s"),
        "lower",
    ),
    HeadlineMetric(
        "engine.phase2_replay_point_s",
        "engine",
        ("benchmarks", "phase2_replay_point_s"),
        "lower",
    ),
    HeadlineMetric(
        "engine.figure1_quick_s",
        "engine",
        ("benchmarks", "figure1_quick_s"),
        "lower",
    ),
    HeadlineMetric(
        "engine.all_quick_s", "engine", ("benchmarks", "all_quick_s"), "lower"
    ),
    HeadlineMetric(
        "engine.all_full_cold_s",
        "engine",
        ("benchmarks", "all_full_cold_s"),
        "lower",
    ),
    HeadlineMetric(
        "engine.all_full_warm_s",
        "engine",
        ("benchmarks", "all_full_warm_s"),
        "lower",
    ),
    HeadlineMetric(
        "service.warm_cache.p50_ms",
        "service",
        ("warm_cache", "p50_ms"),
        "lower",
    ),
    HeadlineMetric(
        "service.levels.16.latency_p50_ms",
        "service",
        ("levels", "16", "latency_ms", "p50"),
        "lower",
    ),
    HeadlineMetric(
        "service.levels.16.throughput_rps",
        "service",
        ("levels", "16", "throughput_rps"),
        "higher",
    ),
    HeadlineMetric(
        "service.capacity.single.max_sustained_rps",
        "service",
        ("capacity", "single", "max_sustained_rps"),
        "higher",
    ),
    HeadlineMetric(
        "service.capacity.fleet.max_sustained_rps",
        "service",
        ("capacity", "fleet", "max_sustained_rps"),
        "higher",
    ),
)

_DIRECTIONS = {metric.name: metric.direction for metric in HEADLINE_METRICS}


@dataclass(frozen=True)
class Regression:
    """One gate failure: a metric outside its tolerated envelope."""

    name: str
    current: float
    baseline: float
    direction: str

    @property
    def ratio(self) -> float:
        """current / baseline (the number the threshold judges)."""
        return self.current / self.baseline if self.baseline else float("inf")

    def describe(self) -> str:
        arrow = "above" if self.direction == "lower" else "below"
        return (
            f"{self.name}: {self.current:g} is {self.ratio:.2f}x the "
            f"baseline {self.baseline:g} ({arrow} the "
            f"{REGRESSION_THRESHOLD:.0%} tolerance)"
        )


def _lookup(document: dict[str, Any], path: tuple[str, ...]) -> Any:
    node: Any = document
    for key in path:
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node


def collect_metrics(
    engine: dict[str, Any] | None, service: dict[str, Any] | None
) -> dict[str, float]:
    """Extract the headline metrics present in the given scoreboards."""
    documents = {"engine": engine, "service": service}
    metrics: dict[str, float] = {}
    for headline in HEADLINE_METRICS:
        document = documents[headline.source]
        if document is None:
            continue
        value = _lookup(document, headline.path)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            logger.warning(
                "%s: missing from %s scoreboard, not gated",
                headline.name,
                headline.source,
            )
            continue
        metrics[headline.name] = float(value)
    return metrics


def collect_phases(
    engine: dict[str, Any] | None, service: dict[str, Any] | None
) -> dict[str, float]:
    """Flatten both scoreboards' ``phase_breakdown`` tables.

    Returns ``{"<source>.<phase>": self_seconds}`` — the view history
    entries store (under ``phases``) and regression attribution diffs.
    """
    phases: dict[str, float] = {}
    for source, document in (("engine", engine), ("service", service)):
        if not isinstance(document, dict):
            continue
        breakdown = document.get("phase_breakdown")
        if not isinstance(breakdown, dict):
            continue
        table = breakdown.get("phases")
        if not isinstance(table, dict):
            continue
        for name, entry in table.items():
            value = entry.get("self_s") if isinstance(entry, dict) else None
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                phases[f"{source}.{name}"] = float(value)
    return phases


def phase_deltas(
    phases: dict[str, float],
    history: Sequence[dict[str, Any]],
    source: str,
    depth: int = BASELINE_DEPTH,
) -> list[tuple[float, str, float, float]]:
    """Per-phase self-time deltas vs history baselines, for one source.

    Returns ``(delta_s, phase, current_s, baseline_s)`` tuples sorted
    biggest increase first — the "where did the time go" answer for a
    regressed ``source`` (``engine`` or ``service``).  The baseline is
    the median over the recent entries that recorded the phase; a phase
    with no history (or absent from the current run) diffs against 0.
    """
    prefix = source + "."
    keys = {key for key in phases if key.startswith(prefix)}
    for entry in history:
        keys.update(
            key
            for key in (entry.get("phases") or {})
            if key.startswith(prefix)
        )
    deltas: list[tuple[float, str, float, float]] = []
    for key in keys:
        values = [
            entry["phases"][key]
            for entry in history
            if key in (entry.get("phases") or {})
        ][-depth:]
        baseline = float(statistics.median(values)) if values else 0.0
        current = phases.get(key, 0.0)
        deltas.append((current - baseline, key, current, baseline))
    deltas.sort(key=lambda item: (-item[0], item[1]))
    return deltas


def load_history(path: Path) -> list[dict[str, Any]]:
    """Parse + validate the history JSONL (missing file: empty history)."""
    if not path.exists():
        return []
    entries: list[dict[str, Any]] = []
    for lineno, line in enumerate(
        path.read_text(encoding="utf-8").splitlines(), start=1
    ):
        if not line.strip():
            continue
        try:
            entry = json.loads(line)
            validate_bench_history_entry(entry)
        except (json.JSONDecodeError, SchemaError) as error:
            raise SchemaError(f"{path}: line {lineno}: {error}") from None
        entries.append(entry)
    return entries


def baseline_of(
    history: Sequence[dict[str, Any]], name: str, depth: int = BASELINE_DEPTH
) -> float | None:
    """Median of the metric over the most recent ``depth`` entries."""
    values = [
        entry["metrics"][name]
        for entry in history
        if name in entry["metrics"]
    ][-depth:]
    if not values:
        return None
    return float(statistics.median(values))


def gate(
    metrics: dict[str, float],
    history: Sequence[dict[str, Any]],
    threshold: float = REGRESSION_THRESHOLD,
    depth: int = BASELINE_DEPTH,
) -> list[Regression]:
    """Compare candidate metrics against their history baselines."""
    regressions: list[Regression] = []
    for name, current in sorted(metrics.items()):
        baseline = baseline_of(history, name, depth)
        direction = _DIRECTIONS[name]
        if baseline is None or baseline == 0:
            logger.info("%s: no baseline yet (%g recorded)", name, current)
            continue
        ratio = current / baseline
        if direction == "lower":
            bad = ratio > 1.0 + threshold
        else:
            bad = ratio < 1.0 - threshold
        marker = "REGRESSION" if bad else "ok"
        logger.info(
            "%s: %g vs baseline %g (%.2fx, %s-is-better): %s",
            name,
            current,
            baseline,
            ratio,
            direction,
            marker,
        )
        if bad:
            regressions.append(Regression(name, current, baseline, direction))
    return regressions


def make_entry(
    metrics: dict[str, float],
    sources: dict[str, str],
    phases: dict[str, float] | None = None,
) -> dict[str, Any]:
    """Assemble one schema-tagged history entry for the current run."""
    entry: dict[str, Any] = {
        "schema": BENCH_HISTORY_SCHEMA,
        "recorded_at": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        "git_sha": manifest.git_revision(),
        "sources": sources,
        "metrics": metrics,
    }
    if phases:
        entry["phases"] = phases
    return entry


def append_entry(path: Path, entry: dict[str, Any]) -> None:
    """Append one entry to the history JSONL."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a", encoding="utf-8") as handle:
        handle.write(dump_json_line(entry) + "\n")


def _load_scoreboard(
    path: Path, validator: Any, required: bool
) -> dict[str, Any] | None:
    if not path.exists():
        if required:
            raise SchemaError(f"{path}: scoreboard not found")
        logger.warning("%s: not found, its metrics are not gated", path)
        return None
    with path.open() as handle:
        document = json.load(handle)
    try:
        validator(document)
    except SchemaError as error:
        raise SchemaError(f"{path}: {error}") from None
    return document


def _parse_args(argv: Sequence[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(
        prog="repro-bench-history",
        description="Gate committed bench scoreboards against their "
        "recorded history; exit 2 on a headline-metric regression.",
    )
    parser.add_argument(
        "--engine", default="BENCH_engine.json", metavar="FILE"
    )
    parser.add_argument(
        "--service", default="BENCH_service.json", metavar="FILE"
    )
    parser.add_argument(
        "--history",
        default="results/bench_history.jsonl",
        metavar="FILE",
        help="JSONL history log (appended on a passing non-check run)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="read-only: gate without appending (the CI mode)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=REGRESSION_THRESHOLD,
        help="tolerated fractional regression (default %(default)s)",
    )
    parser.add_argument(
        "--depth",
        type=int,
        default=BASELINE_DEPTH,
        help="history entries feeding the median baseline "
        "(default %(default)s)",
    )
    parser.add_argument("-v", "--verbose", action="count", default=0)
    return parser.parse_args(argv)


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point; 0 = pass, 1 = bad input, 2 = regression."""
    args = _parse_args(argv)
    logs.configure(verbosity=args.verbose + 1)
    try:
        engine = _load_scoreboard(
            Path(args.engine), validate_bench_engine, required=True
        )
        service = _load_scoreboard(
            Path(args.service), validate_bench_service, required=False
        )
        history = load_history(Path(args.history))
    except (OSError, json.JSONDecodeError, SchemaError) as error:
        logger.error("%s", error)
        return 1

    metrics = collect_metrics(engine, service)
    if not metrics:
        logger.error("no headline metrics found in the given scoreboards")
        return 1

    regressions = gate(
        metrics, history, threshold=args.threshold, depth=args.depth
    )
    phases = collect_phases(engine, service)
    if regressions:
        for regression in regressions:
            logger.error("%s", regression.describe())
        print(
            f"FAIL: {len(regressions)} headline metric(s) regressed beyond "
            f"{args.threshold:.0%} of the history baseline"
        )
        # Name the guilty phase: diff the regressed source's
        # phase_breakdown against its history baseline, biggest
        # self-time increase first.
        for source in sorted({r.name.split(".", 1)[0] for r in regressions}):
            deltas = phase_deltas(phases, history, source, depth=args.depth)[
                :ATTRIBUTION_TOP
            ]
            if not deltas:
                print(
                    f"attribution ({source}): no phase_breakdown recorded "
                    "yet — re-run the bench to collect one"
                )
                continue
            print(
                f"attribution ({source} phase self-time vs history baseline):"
            )
            for delta, key, current, baseline in deltas:
                print(
                    f"  {key:40s} {current:8.3f}s vs {baseline:8.3f}s "
                    f"({delta:+.3f}s)"
                )
        return 2

    if not args.check:
        entry = make_entry(
            metrics,
            {"engine": args.engine, "service": args.service},
            phases=phases,
        )
        append_entry(Path(args.history), entry)
        print(
            f"PASS: recorded {len(metrics)} headline metric(s) as history "
            f"entry #{len(history) + 1} in {args.history}"
        )
    else:
        print(
            f"PASS: {len(metrics)} headline metric(s) within "
            f"{args.threshold:.0%} of the history baseline "
            f"({len(history)} entries)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
