"""Compare benchmark results against the bounds in ``BENCHMARK.json``.

For each (workload, end-to-end metric) the verdict is:

* ``better`` / ``worse`` - the median moved by more than the metric's
  bound, in its good / bad direction;
* ``same`` - it moved by no more than the bound;
* ``unresolved`` - the run-to-run spread (interquartile range over the
  median, the wider of the two sides) exceeds the bound, so a move of
  that size cannot be told from noise.  The exception: when every run
  of B reads better than every run of A by more than A's own spread,
  the verdict is ``better``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from collections.abc import Sequence
from pathlib import Path

from common import ROOT, WORK_ROOT, WORKLOADS


def load_bounds(path: Path = ROOT / "BENCHMARK.json") -> dict[str, tuple[str, float]]:
    """``metric -> (better, bound)`` for every end-to-end metric."""
    document = json.loads(path.read_text())
    return {m["name"]: (m["better"], m["bound"]) for m in document["end_to_end"]}


def spread(values: Sequence[float]) -> float:
    """Interquartile range over the median (0 for a single run)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (q3 - q1) / middle if middle else 0.0


def verdict(
    a: Sequence[float], b: Sequence[float], better: str, bound: float
) -> tuple[str, float]:
    """(verdict, relative change of B's median against A's, + = worse)."""
    ma, mb = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (mb - ma) / ma if ma else 0.0
    b_beats_all = all(sign * (y - x) < 0 for x in a for y in b)
    if len(a) > 1 and b_beats_all and -worse_by > spread(a):
        return "better", worse_by
    if max(spread(a), spread(b)) > bound:
        return "unresolved", worse_by
    if worse_by > bound:
        return "worse", worse_by
    if -worse_by > bound:
        return "better", worse_by
    return "same", worse_by


def load_results(paths: Sequence[Path]) -> dict[str, list[dict]]:
    """Result documents by workload, from files or directories of them."""
    files: list[Path] = []
    for path in paths:
        files += sorted(path.glob("*.json")) if path.is_dir() else [path]
    by_workload: dict[str, list[dict]] = defaultdict(list)
    for file in files:
        document = json.loads(file.read_text())
        for result in document if isinstance(document, list) else [document]:
            if not result.get("trace"):
                by_workload[result["workload"]].append(result)
    return by_workload


def _values(results: list[dict], metric: str) -> list[float]:
    return [r["metrics"][metric]["value"] for r in results if metric in r["metrics"]]


def compare(a: dict[str, list[dict]], b: dict[str, list[dict]], bounds) -> list[tuple]:
    rows = []
    for workload in sorted(a.keys() & b.keys()):
        for metric, (better, bound) in bounds.items():
            va = _values(a[workload], metric)
            vb = _values(b[workload], metric)
            if va and vb:
                result, change = verdict(va, vb, better, bound)
                rows.append((workload, metric, result, change, bound, len(va), len(vb)))
    return rows


def print_rows(rows: list[tuple]) -> None:
    print(f"{'workload':12s} {'metric':16s} {'verdict':11s} {'change':>8s} "
          f"{'bound':>6s}  runs")
    for workload, metric, result, change, bound, na, nb in rows:
        print(
            f"{workload:12s} {metric:16s} {result:11s} {change:+8.1%} "
            f"{bound:6.0%}  {na}/{nb}"
        )


def main_compare(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="suite.py compare",
        description="Compare result files A (baseline) and B (change).",
    )
    parser.add_argument(
        "a", type=Path, nargs="+", help="A's result files or directories"
    )
    parser.add_argument("--against", "-b", type=Path, nargs="+", required=True)
    args = parser.parse_args(_positional_pair(argv))
    rows = compare(load_results(args.a), load_results(args.against), load_bounds())
    print_rows(rows)
    return 1 if any(row[2] == "worse" for row in rows) else 0


def _positional_pair(argv: list[str]) -> list[str]:
    """Accept the short form ``compare A.json B.json``."""
    if len(argv) == 2 and not any(arg.startswith("-") for arg in argv):
        return [argv[0], "--against", argv[1]]
    return argv


def main_ab(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        prog="suite.py ab",
        description="Run two checkouts' benchmarks alternately, then compare.",
    )
    parser.add_argument("root_a", type=Path, help="baseline checkout")
    parser.add_argument("root_b", type=Path, help="changed checkout")
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--runs", type=int, default=10, help="runs per side")
    parser.add_argument("--seed", type=int, default=20261016)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--out", type=Path, default=WORK_ROOT / "ab")
    args = parser.parse_args(argv)
    workloads = args.workload or list(WORKLOADS)
    sides = {"a": args.root_a.resolve(), "b": args.root_b.resolve()}
    for side in sides:
        (args.out / side).mkdir(parents=True, exist_ok=True)
    for workload in workloads:
        for k in range(args.runs):
            # A B B A A B ...: each side runs first in half of the pairs.
            order = ("a", "b") if k % 2 == 0 else ("b", "a")
            for side in order:
                out = args.out / side / f"{workload}-{k}.json"
                command = [
                    sys.executable, "perfbench/suite.py", "--workload", workload,
                    "--seed", str(args.seed + k), "--seconds", f"{args.seconds:g}",
                    "--out", str(out.resolve()),
                ]
                print(f"[{side}] {workload} run {k}", flush=True)
                subprocess.run(
                    command, cwd=sides[side], stdout=subprocess.DEVNULL, check=False
                )
    rows = compare(
        load_results([args.out / "a"]), load_results([args.out / "b"]), load_bounds()
    )
    print_rows(rows)
    return 1 if any(row[2] == "worse" for row in rows) else 0
