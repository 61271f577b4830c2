"""Run manifests: provenance for every ``--out`` experiment run.

A manifest (``<experiment_id>.meta.json``) records everything needed to
interpret — and re-produce — a result file sitting in ``results/``: the
experiment and configuration, the seeds and instruction counts behind
the synthetic traces, the code version (git SHA) and library versions,
which engine path produced the numbers (two-phase replay vs.
step-simulator oracle vs. purely analytic), the per-run Eq. (2) cycle
breakdown, wall time, and the full metrics snapshot.

Manifests are deterministic *modulo* a small, well-known set of
volatile fields (:data:`VOLATILE_KEYS`): timestamps, wall times, and
host/code provenance.  :func:`stable_view` strips those, and the test
suite pins that two runs of the same experiment agree byte-for-byte on
the rest.
"""

from __future__ import annotations

import platform
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Any

from repro.util.jsonout import write_json

#: Schema tag written into every manifest.
MANIFEST_SCHEMA = "repro.obs.manifest/1"

#: Top-level keys that legitimately change between identical runs.
#: Everything else is covered by the determinism guarantee.
VOLATILE_KEYS = ("provenance", "wall_time_s")

#: Diagnostic-only counters that may legitimately differ between
#: otherwise identical runs (e.g. a corrupt entry in any durable store,
#: ``store.corrupt_recompute{store=...}``, on one machine triggers a
#: silent recompute, and phase-1 engine dispatches only fire on store
#: misses — cold runs count them, warm runs never reach the
#: dispatcher).  :func:`stable_view` strips them — matched on the
#: counter's base name, before any ``{label=...}`` suffix — so the
#: cold/warm snapshot-identity contract is judged on the deterministic
#: remainder.
DIAGNOSTIC_COUNTERS = frozenset(
    {
        "store.corrupt_recompute",
        "engine.phase1.dispatches",
    }
)


def _counter_base(key: str) -> str:
    """Counter name with any ``{label=...}`` suffix removed."""
    return key.split("{", 1)[0]


def git_revision() -> str | None:
    """Best-effort git SHA of the working tree; ``None`` off-repo."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


def _numpy_version() -> str | None:
    try:
        import numpy
    except ImportError:  # pragma: no cover - numpy is a hard dependency
        return None
    return numpy.__version__


def _engine_path(counters: dict[str, Any]) -> str:
    """Classify which engine produced the run's numbers."""
    replay = counters.get("engine.replay.calls", 0)
    step = counters.get("engine.step.calls", 0)
    if replay and step:
        return "mixed"
    if replay:
        return "replay"
    if step:
        return "step"
    return "analytic"


def build_manifest(
    *,
    experiment_id: str,
    title: str,
    quick: bool,
    jobs: int,
    seed: int,
    n_instructions: int,
    wall_time_s: float,
    outputs: list[str],
    metrics_snapshot: dict[str, Any] | None,
) -> dict[str, Any]:
    """Assemble the manifest document for one experiment run.

    ``metrics_snapshot`` is the per-experiment
    :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`; the Eq. (2)
    breakdown and engine classification are lifted out of it into
    first-class fields (all zero / ``"analytic"`` for experiments that
    never run the simulator).
    """
    counters = (metrics_snapshot or {}).get("counters", {})
    eq2 = {
        "execute_cycles": counters.get("eq2.execute_cycles", 0),
        "read_stall_cycles": counters.get("eq2.read_stall_cycles", 0),
        "flush_stall_cycles": counters.get("eq2.flush_stall_cycles", 0),
        "write_buffer_stall_cycles": counters.get(
            "eq2.write_buffer_stall_cycles", 0
        ),
        "total_cycles": counters.get("eq2.total_cycles", 0),
    }
    return {
        "schema": MANIFEST_SCHEMA,
        "experiment": experiment_id,
        "title": title,
        "config": {"quick": quick, "jobs": jobs},
        "seeds": {"spec92": seed},
        "instructions_per_trace": n_instructions,
        "engine": {
            "path": _engine_path(counters),
            "replay_calls": counters.get("engine.replay.calls", 0),
            "step_calls": counters.get("engine.step.calls", 0),
        },
        "eq2": eq2,
        "outputs": sorted(outputs),
        "metrics": metrics_snapshot or {"counters": {}, "histograms": {}},
        "wall_time_s": wall_time_s,
        "provenance": {
            "git_sha": git_revision(),
            "created_at": datetime.now(timezone.utc).isoformat(
                timespec="seconds"
            ),
            "python": sys.version.split()[0],
            "numpy": _numpy_version(),
            "platform": platform.platform(),
        },
    }


def stable_view(manifest: dict[str, Any]) -> dict[str, Any]:
    """The manifest minus its volatile fields (the deterministic part).

    Strips :data:`VOLATILE_KEYS` at the top level and the
    :data:`DIAGNOSTIC_COUNTERS` from the metrics snapshot, without
    mutating the input.
    """
    view = {k: v for k, v in manifest.items() if k not in VOLATILE_KEYS}
    metrics = view.get("metrics")
    if isinstance(metrics, dict) and isinstance(metrics.get("counters"), dict):
        counters = metrics["counters"]
        if any(_counter_base(key) in DIAGNOSTIC_COUNTERS for key in counters):
            view["metrics"] = {
                **metrics,
                "counters": {
                    k: v
                    for k, v in counters.items()
                    if _counter_base(k) not in DIAGNOSTIC_COUNTERS
                },
            }
    return view


def write_manifest(
    directory: str | Path, experiment_id: str, manifest: dict[str, Any]
) -> Path:
    """Write ``<directory>/<experiment_id>.meta.json``; returns the path."""
    return write_json(Path(directory) / f"{experiment_id}.meta.json", manifest)
