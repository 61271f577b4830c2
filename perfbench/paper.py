"""The paper workloads: ``python -m repro.experiments.runner --all``.

Each rep is a fresh runner process at full fidelity writing its
``--out`` tree.  ``paper-cold`` gives every rep a private, empty events
and reuse store, so phase 1 (the spec92 reuse-profile arrays, event
derivation and store writes) runs in full; ``paper-warm`` runs against a
store filled during set-up, so phase 1 shrinks to store reads and the
replay and stepped-cache experiments dominate.  The inputs are the
paper's own seeded traces; the benchmark seed does not change them.
"""

from __future__ import annotations

import os
import shutil
import statistics
import subprocess
import sys
import threading
from pathlib import Path

from common import (
    ROOT,
    BenchmarkError,
    Outcome,
    Stopwatch,
    child_env,
)
from loadgen import tail

#: Reps always run, whatever ``--seconds`` allows.
MIN_REPS = 3
#: Boots per paper-cold run; its setup_s is their median.
BOOTS = 5
#: A runner still going after this long is killed and counted failed
#: (a normal full-fidelity rep takes about 5 s).
REP_TIMEOUT_S = 60.0


class Rep:
    """One finished runner process: wall time and peak memory."""

    def __init__(self, args: list[str], env: dict, log: Path) -> None:
        with open(log, "w") as stderr, Stopwatch() as wall:
            process = subprocess.Popen(
                [sys.executable, "-m", "repro.experiments.runner", *args],
                cwd=ROOT,
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=stderr,
            )
            watchdog = threading.Timer(REP_TIMEOUT_S, process.kill)
            watchdog.start()
            try:
                # wait4 gives this child's own rusage (peak RSS included).
                _, status, usage = os.wait4(process.pid, 0)
            finally:
                watchdog.cancel()
            process.returncode = os.waitstatus_to_exitcode(status)
        self.ok = process.returncode == 0
        self.wall_s = wall.seconds
        self.rss_mib = usage.ru_maxrss / 1024.0


def run_all(env: dict, out: Path, log: Path) -> Rep:
    return Rep(["--all", "--out", str(out)], env, log)


def tree_bytes(root: Path) -> dict[str, bytes]:
    """Every output file except the volatile run manifests."""
    return {
        str(path.relative_to(root)): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file() and not path.name.endswith(".meta.json")
    }


def tree_problems(reference: dict[str, bytes], out: Path, label: str) -> list[str]:
    got = tree_bytes(out)
    if not reference:
        return [f"{label}: the reference run wrote no output"]
    differing = sorted(
        name for name in reference.keys() | got.keys()
        if reference.get(name) != got.get(name)
    )
    return [f"{label}: {name} differs" for name in differing[:5]]


def _rep(workdir: Path, tag: str, store: Path, probe_out: Path | None = None):
    out = workdir / f"out-{tag}"
    rep = run_all(child_env(workdir, store, probe_out), out, workdir / f"{tag}.log")
    return rep, out


def run(workload: str, seed: int, seconds: float, workdir: Path, traced: bool):
    del seed  # the paper's traces are seeded by the program itself
    warm = workload == "paper-warm"
    shared_store = workdir / "store"
    reference_out = None
    if warm:
        # Set-up: fill the store with one cold run; its output is the
        # reference every warm rep must reproduce byte for byte.
        populate, reference_out = _rep(workdir, "populate", shared_store)
        if not populate.ok:
            raise BenchmarkError(f"store population failed; see {workdir}/populate.log")
        setup_s, setup_note = populate.wall_s, "store population (one cold --all)"
    else:
        boots = [
            Rep(["--list"], child_env(workdir, shared_store), workdir / "boot.log")
            for _ in range(BOOTS)
        ]
        setup_s = statistics.median([b.wall_s for b in boots])
        setup_note = f"median of {BOOTS} runner boots (--list)"

    def rep(tag: str, probe_out: Path | None = None) -> tuple[str, Rep, Path]:
        store = shared_store if warm else workdir / f"store-{tag}"
        done, out = _rep(workdir, tag, store, probe_out)
        if not warm:
            shutil.rmtree(store, ignore_errors=True)  # ~100 MB per cold rep
        return tag, done, out

    if traced:
        from layers import paper_layer_metrics

        probe_out = workdir / "probe"
        probe_out.mkdir()
        runs = [rep("plain"), rep("traced", probe_out)]
        plain, probed = runs[0][1], runs[1][1]
        metrics, problems, notes = paper_layer_metrics(
            workload,
            probe_out,
            wall_s=probed.wall_s,
            overhead_ratio=probed.wall_s / plain.wall_s,
        )
    else:
        problems, notes = [], []
        runs = []
        while len(runs) < MIN_REPS or (
            sum(r.wall_s for _, r, _ in runs)
            + statistics.median([r.wall_s for _, r, _ in runs])
            <= seconds
        ):
            runs.append(rep(f"rep{len(runs)}"))
            if not runs[-1][1].ok:
                break  # a failed rep fails the run; more would only take time
        walls = [r.wall_s for _, r, _ in runs]
        n = len(runs)
        tail_s, tail_label = tail(walls)
        metrics = {
            "setup_s": (setup_s, "s", setup_note),
            "p50_ms": (
                statistics.median(walls) * 1000.0,
                "ms",
                f"median --all wall of {n} reps",
            ),
            "tail_ms": (tail_s * 1000.0, "ms", f"{tail_label} of {n} reps"),
            "peak_rss_mib": (
                statistics.median([r.rss_mib for _, r, _ in runs]),
                "MiB",
                "runner ru_maxrss",
            ),
        }
    reference = tree_bytes(reference_out or runs[0][2])
    failed = 0
    for tag, done, out in runs:
        issues = [] if done.ok else [f"{tag}: the runner exited nonzero"]
        issues += tree_problems(reference, out, tag)
        failed += bool(issues)
        problems += issues
    return Outcome(len(runs), failed, problems, metrics, notes)
