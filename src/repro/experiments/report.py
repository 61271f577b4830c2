"""Reproduction scorecard generator.

Runs every paper experiment, checks every :mod:`repro.experiments.claims`
claim, and renders a single markdown report — the "did the reproduction
hold" artifact a reviewer reads first.  Wired into the runner as
``--report``; the experiments run through the runner's own fan-out
(:func:`repro.experiments.runner.run_experiments`, over ``--jobs``
worker processes), and claims are evaluated in the parent either way,
so the scorecard is identical for any job count.
"""

from __future__ import annotations

import time
from pathlib import Path

from repro.experiments.claims import ClaimOutcome, evaluate_claims
from repro.experiments.registry import EXPERIMENTS
from repro.experiments.runner import run_experiments

#: Experiments the claims need (the paper artifacts, not the ablations).
PAPER_EXPERIMENT_IDS = (
    "table2",
    "table3",
    "figure1",
    "figure2",
    "example1",
    "figure3",
    "figure4",
    "figure5",
    "figure6",
)


def build_report(
    quick: bool = True, include_ablations: bool = False, jobs: int = 1
) -> str:
    """Run experiments, evaluate claims, return the markdown report.

    ``jobs > 1`` fans the experiment runs out over worker processes,
    consuming results in paper order — every experiment is
    deterministic, so the scorecard is identical for any job count.
    """
    started = time.perf_counter()
    ids = list(PAPER_EXPERIMENT_IDS)
    if include_ablations:
        ids += [i for i in EXPERIMENTS if i not in PAPER_EXPERIMENT_IDS]
    outcomes = run_experiments(ids, quick, jobs)
    results = {i: outcome[0] for i, outcome in zip(ids, outcomes)}
    timings = {i: outcome[1] for i, outcome in zip(ids, outcomes)}
    claims = evaluate_claims(results)
    elapsed = time.perf_counter() - started
    return _render(claims, results, timings, elapsed, quick)


def _render(
    outcomes: list[ClaimOutcome],
    results,
    timings,
    elapsed: float,
    quick: bool,
) -> str:
    passed = sum(outcome.passed for outcome in outcomes)
    lines = [
        "# Reproduction scorecard",
        "",
        "Paper: *A Unified Architectural Tradeoff Methodology* "
        "(Chen & Somani, ISCA 1994).",
        "",
        f"**{passed}/{len(outcomes)} claims reproduced** "
        f"({'quick' if quick else 'full'} fidelity, {elapsed:.1f}s).",
        "",
        "| claim | paper location | statement | verdict |",
        "|---|---|---|---|",
    ]
    for outcome in outcomes:
        verdict = "PASS" if outcome.passed else f"FAIL {outcome.error}".strip()
        lines.append(
            f"| `{outcome.claim.claim_id}` | {outcome.claim.section} | "
            f"{outcome.claim.statement} | {verdict} |"
        )
    lines += ["", "## Experiments run", ""]
    for experiment_id, result in results.items():
        lines.append(
            f"* `{experiment_id}` — {result.title} "
            f"({timings[experiment_id]:.1f}s)"
        )
        for note in result.notes:
            lines.append(f"    * {note}")
    return "\n".join(lines) + "\n"


def write_report(
    path: str | Path,
    quick: bool = True,
    include_ablations: bool = False,
    jobs: int = 1,
) -> Path:
    """Build and write the report; returns the path."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(
        build_report(quick=quick, include_ablations=include_ablations, jobs=jobs)
    )
    return target
