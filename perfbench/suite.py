"""End-to-end benchmark of the reproduction, driven from outside.

Runs the program's own command lines (``python -m
repro.experiments.runner`` and ``python -m repro serve``) from the
checkout this file sits in, prints every metric by name with its unit,
and ends with one JSON line::

    python3 perfbench/suite.py --workload paper-warm --seed 20261016 \\
        --seconds 20 --trace 0 --out result.json

``--trace 1`` (or ``--traced``) runs the workload once untraced and once
under the layer probe and reports the per-layer metrics instead of the
end-to-end ones.  Without ``--workload`` every workload runs in turn.
The exit status is nonzero when any output check fails.

Two more commands compare results against the bounds in
``BENCHMARK.json``::

    python3 perfbench/suite.py compare A.json B.json
    python3 perfbench/suite.py ab PARENT_CHECKOUT CHANGE_CHECKOUT --runs 10

``compare`` takes result files (or directories of them) for each side;
``ab`` runs two checkouts' benchmarks alternately (A B B A ...) and then
compares them.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import compare  # noqa: E402
import paper  # noqa: E402
import serve  # noqa: E402
from common import (  # noqa: E402
    END_TO_END,
    WORKLOADS,
    BenchmarkError,
    Outcome,
    compile_program,
    make_workdir,
    remove_workdir,
    require_program,
)
from layers import METRICS  # noqa: E402

RUNNERS = {
    name: paper.run if name.startswith("paper") else serve.run for name in WORKLOADS
}
DEFAULT_SEED = 20261016
DEFAULT_SECONDS = 20


def _terminate(signum, _frame) -> None:
    # Unwind through every ``finally`` so servers are stopped.
    raise SystemExit(128 + signum)


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> Outcome:
    workdir = make_workdir(workload)
    try:
        return RUNNERS[workload](workload, seed, seconds, workdir, traced)
    finally:
        remove_workdir(workdir)


def report(
    workload: str, seed: int, seconds: float, traced: bool, outcome: Outcome
) -> dict:
    """Print the metrics and checks; returns the result document."""
    mode = "traced" if traced else "untraced"
    print(f"== {workload} (seed {seed}, {seconds:g} s, {mode})")
    for name, (value, unit, note) in outcome.metrics.items():
        print(f"{name:52s} {value:14.6g} {unit:6s} {note}".rstrip())
    for note in outcome.notes:
        print(f"note: {note}")
    problems = list(outcome.problems)
    expected = [row[0] for row in METRICS] if traced else list(END_TO_END)
    if list(outcome.metrics) != expected:
        problems.append("the harness reported other metrics than BENCHMARK.json lists")
    for name, (value, _, _) in outcome.metrics.items():
        if not math.isfinite(value):
            problems.append(f"{name} is not a finite number")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    return {
        "correct": not problems and outcome.failed == 0,
        "attempted": max(outcome.attempted, 1),
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value if math.isfinite(value) else 0.0, "unit": unit}
            for name, (value, unit, _) in outcome.metrics.items()
        },
    }


def main_run(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description="Run the benchmark workloads.")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--out", type=Path, help="also write the result(s) as JSON")
    args = parser.parse_args(argv)
    traced = bool(args.trace) or args.traced
    signal.signal(signal.SIGTERM, _terminate)
    try:
        require_program()
        compile_program()
        results = []
        for workload in [args.workload] if args.workload else list(WORKLOADS):
            outcome = run_workload(workload, args.seed, args.seconds, traced)
            result = report(workload, args.seed, args.seconds, traced, outcome)
            results.append(
                {
                    "workload": workload,
                    "seed": args.seed,
                    "trace": int(traced),
                    **result,
                }
            )
            print(json.dumps(result), flush=True)
    except BenchmarkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.out:
        args.out.write_text(
            json.dumps(results[0] if args.workload else results, indent=2) + "\n"
        )
    return 0 if all(r["correct"] for r in results) else 1


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        return compare.main_compare(argv[1:])
    if argv and argv[0] == "ab":
        return compare.main_ab(argv[1:])
    return main_run(argv)


if __name__ == "__main__":
    raise SystemExit(main())
