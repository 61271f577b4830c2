"""Paths, the program's process environment and the result type shared
by the benchmark's workloads."""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PROBE_DIR = HERE / "layer_probe"
#: Scratch space for stores, outputs and probe files, inside the checkout.
WORK_ROOT = ROOT / ".bench_work"

WORKLOADS = ("paper-cold", "paper-warm", "serve-hit", "serve-miss")

#: The end-to-end metrics every untraced run reports, in order.
END_TO_END = (
    "setup_s",
    "p50_ms",
    "tail_ms",
    "peak_rss_mib",
)

#: Tells the layer probe (``layer_probe/sitecustomize.py``) where to
#: write its per-process files; unset means the probe stays off.
PROBE_OUT_ENV = "PERFBENCH_PROBE_OUT"


@dataclass
class Outcome:
    """What one workload run measured and checked.

    ``metrics`` maps a name to ``(value, unit, note)``; ``problems`` are
    output mismatches and failed checks (any makes the run incorrect);
    ``notes`` are findings that do not.
    """

    attempted: int
    failed: int
    problems: list[str]
    metrics: dict[str, tuple[float, str, str]]
    notes: list[str] = field(default_factory=list)


class BenchmarkError(RuntimeError):
    """The program could not be run or measured (not an output mismatch)."""


def require_program() -> None:
    """Fail unless the program's sources sit beside the benchmark."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no program sources under {SRC}")


def import_program() -> None:
    """Make ``import repro`` resolve to this checkout's sources."""
    require_program()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def compile_program() -> None:
    """Byte-compile the sources once, so no timed start pays for it."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC)],
        check=True,
        stdout=subprocess.DEVNULL,
        timeout=300,
    )


def make_workdir(name: str) -> Path:
    path = WORK_ROOT / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    (path / "tmp").mkdir(parents=True)
    return path


def remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()  # only once no other run is using it
    except OSError:
        pass


def child_env(workdir: Path, store: Path, probe_out: Path | None = None) -> dict:
    """Environment for one program process.

    Every ``REPRO_*`` knob inherited from the caller is dropped so runs
    measure the defaults; the events/reuse store lives in ``store`` and
    every temporary or cache file stays inside ``workdir``.  With
    ``probe_out`` the layer probe starts in every process and writes
    there.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.pop(PROBE_OUT_ENV, None)
    paths = [str(SRC)]
    if probe_out is not None:
        paths.append(str(PROBE_DIR))
        env[PROBE_OUT_ENV] = str(probe_out)
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONUNBUFFERED"] = "1"
    env["REPRO_EVENTS_CACHE_DIR"] = str(store)
    env["TMPDIR"] = str(workdir / "tmp")
    env["XDG_CACHE_HOME"] = str(workdir / "xdg")
    # The runner's manifests ask git for a revision; stop its search for
    # a repository at the checkout instead of the filesystem root.
    env["GIT_CEILING_DIRECTORIES"] = str(ROOT.parent)
    return env


class Stopwatch:
    """``with Stopwatch() as sw: ...`` then ``sw.seconds``."""

    def __enter__(self) -> "Stopwatch":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> None:
        self.seconds = time.perf_counter() - self._start
