"""The serve workloads: ``python -m repro serve`` under open-loop load.

* ``serve-hit`` boots one process and warms 160 points (4 spec92
  traces x 5 stall policies x 8 beta_m) in set-up, so every measured
  request is a result-cache hit: HTTP, validation, cache lookup and
  serialization, with no engine work and no batcher.
* ``serve-miss`` boots the 2-worker fleet (the CLI default on a 2-CPU
  host) and resolves the 12 phase-1 keys (4 traces x 3 geometries) in
  set-up; every measured request asks a fresh beta_m, so each one
  misses the result cache and crosses the router, the micro-batcher and
  a phase-2 replay.

The seed picks the beta_m values, the order of requests and the Poisson
arrival times; the traces themselves are the program's seeded spec92
generators.
"""

from __future__ import annotations

import json
import os
import queue
import random
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from common import (
    ROOT,
    BenchmarkError,
    Outcome,
    Stopwatch,
    child_env,
    import_program,
)
from loadgen import (
    Connection,
    percentile,
    reportable,
    tail,
    rung_seconds,
    run_closed,
    run_rung,
)

TRACES = ("swm256", "ear", "doduc", "hydro2d")
#: The five blocking stall policies.
POLICIES = ("FS", "BL", "BNL1", "BNL2", "BNL3")
HIT_BETAS = 8
MISS_GEOMETRIES = (4096, 8192, 16384)
#: Fresh beta_m values are 4.000 .. 31.999 in steps of 1/1000: a stride
#: coprime with the range visits each once before any repeats.
MISS_BETA_SLOTS = 28_000
MISS_BETA_STRIDE = 7_919
#: Set-ups per untraced run; setup_s is their median.
SETUPS = 5
#: Responses per run compared byte for byte with an in-harness replay.
CHECKED_RESPONSES = 48
MIN_CHECKED_RESPONSES = 32
SIMULATE_PATH = "/v1/simulate"


def _trace(name: str) -> dict:
    return {"kind": "spec92", "name": name, "instructions": 8000, "seed": 7}


class HitTraffic:
    """Repeated keys: every measured request hits the result cache."""

    workers = 1
    fixed_rps = 400.0
    cached = True

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        betas = sorted(q / 4.0 for q in rng.sample(range(8, 161), HIT_BETAS))
        self.points = [
            {"trace": _trace(t), "policy": p, "memory_cycle": b}
            for t in TRACES
            for p in POLICIES
            for b in betas
        ]
        self._order = [rng.randrange(len(self.points)) for _ in range(1 << 16)]

    def warm_params(self) -> list[dict]:
        return self.points

    def params(self, index: int) -> dict:
        return self.points[self._order[index % len(self._order)]]


class MissTraffic:
    """Distinct keys: every measured request misses the result cache."""

    workers = 2
    fixed_rps = 100.0
    cached = False

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        self._combos = [
            (t, g, p) for t in TRACES for g in MISS_GEOMETRIES for p in POLICIES
        ]
        rng.shuffle(self._combos)
        self._offset = rng.randrange(MISS_BETA_SLOTS)

    def warm_params(self) -> list[dict]:
        return [
            {"trace": _trace(t), "cache": {"total_bytes": g}, "memory_cycle": 2.0}
            for t in TRACES
            for g in MISS_GEOMETRIES
        ]

    def params(self, index: int) -> dict:
        trace, total_bytes, policy = self._combos[index % len(self._combos)]
        slot = (self._offset + MISS_BETA_STRIDE * index) % MISS_BETA_SLOTS
        return {
            "trace": _trace(trace),
            "cache": {"total_bytes": total_bytes},
            "policy": policy,
            "memory_cycle": 4.0 + slot / 1000.0,
        }


TRAFFIC = {"serve-hit": HitTraffic, "serve-miss": MissTraffic}


def _body(params: dict) -> bytes:
    return json.dumps({"params": params}).encode("utf-8")


# -- the server processes ---------------------------------------------------

_LISTENING = re.compile(r"listening on .*:(\d+)")
_WORKER = re.compile(r"repro\.fleet worker \S+ pid=(\d+)")


def _proc_stat(pid: int) -> list[str] | None:
    """Fields of ``/proc/<pid>/stat`` after the command name, or None
    once the process is gone (a zombie counts as gone)."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    fields = text[text.rindex(")") + 2 :].split()
    return None if fields[0] in ("Z", "X") else fields


class Server:
    """``python -m repro serve`` as a child process, ready when started."""

    def __init__(self, workers: int, env: dict, log: Path) -> None:
        self._lines: queue.Queue[str | None] = queue.Queue()
        with open(log, "w") as stderr:
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--port", "0",
                 "--workers", str(workers)],
                cwd=ROOT,
                env=env,
                stdout=subprocess.PIPE,
                stderr=stderr,
                text=True,
            )
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        self.worker_pids: list[int] = []
        self.port = None
        # A fleet router announces its own port, then each worker's pid.
        announced_workers = workers if workers > 1 else 0
        try:
            while self.port is None or len(self.worker_pids) < announced_workers:
                line = self._lines.get(timeout=60.0)
                if line is None:
                    raise BenchmarkError(f"server exited during boot; see {log}")
                if match := _LISTENING.search(line):
                    self.port = int(match.group(1))
                elif match := _WORKER.search(line):
                    self.worker_pids.append(int(match.group(1)))
        except queue.Empty:
            self.stop()
            raise BenchmarkError(f"server not ready within 60 s; see {log}") from None
        except BaseException:
            self.stop()
            raise

    def _read(self) -> None:
        assert self.process.stdout is not None
        for line in self.process.stdout:
            self._lines.put(line)
        self._lines.put(None)

    @property
    def pids(self) -> list[int]:
        return [self.process.pid, *self.worker_pids]

    def peak_rss_mib(self) -> float:
        """Summed peak resident set (VmHWM) of every server process."""
        total_kib = 0
        for pid in self.pids:
            try:
                status = Path(f"/proc/{pid}/status").read_text()
            except OSError:
                continue
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total_kib += int(line.split()[1])
        return total_kib / 1024.0

    def signal_all(self, signum: int) -> None:
        for pid in self.pids:
            try:
                os.kill(pid, signum)
            except ProcessLookupError:
                pass

    def stop(self) -> None:
        """SIGTERM drain; every process (fleet workers too) has ended on
        return."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=60.0)
            except subprocess.TimeoutExpired:
                self.signal_all(signal.SIGKILL)
                self.process.wait()
        deadline = time.monotonic() + 30.0
        for pid in self.worker_pids:
            while _proc_stat(pid) is not None:
                if time.monotonic() > deadline:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        break
                time.sleep(0.02)
        self._reader.join(timeout=10.0)


def _warm(port: int, traffic) -> None:
    connection = Connection(port)
    try:
        for params in traffic.warm_params():
            status, body = connection.post(SIMULATE_PATH, _body(params))
            if status != 200:
                raise BenchmarkError(f"warm-up answered {status}: {body[:200]!r}")
    finally:
        connection.close()


def _boot(traffic, workdir: Path, tag: str, probe_out: Path | None = None):
    """Boot and warm one server; returns (server, set-up seconds, store)."""
    store = workdir / f"store-{tag}"
    env = child_env(workdir, store, probe_out)
    with Stopwatch() as setup:
        server = Server(traffic.workers, env, workdir / f"server-{tag}.log")
        try:
            _warm(server.port, traffic)
        except BaseException:
            server.stop()
            raise
    return server, setup.seconds, store


# -- measurement --------------------------------------------------------------


@dataclass
class Recorder:
    """Sends requests and keeps a seeded sample of responses to check."""

    traffic: object
    sample: frozenset
    responses: dict

    def send(self, connection: Connection, index: int) -> bool:
        status, body = connection.post(SIMULATE_PATH, _body(self.traffic.params(index)))
        if index in self.sample:
            self.responses[index] = (status, body)
        return status == 200


def _canonical(value) -> str:
    return json.dumps(value, sort_keys=True)


def check_responses(traffic, responses: dict, store: Path) -> list[str]:
    """Compare sampled responses with ``queries`` run in this process.

    The expected result is phase 1 (``resolve_events``, a load from the
    server's own store) plus phase 2 (``simulate_from_events``); values
    compare exactly via their canonical JSON.
    """
    import_program()
    os.environ["REPRO_EVENTS_CACHE_DIR"] = str(store)
    from repro.service import queries, schemas

    problems = []
    if len(responses) < MIN_CHECKED_RESPONSES:
        problems.append(
            f"only {len(responses)} sampled responses (need {MIN_CHECKED_RESPONSES})"
        )
    for index in sorted(responses):
        status, body = responses[index]
        validated = schemas.validate_simulate(traffic.params(index))
        expected = queries.simulate_from_events(
            validated, queries.resolve_events(validated)
        )
        try:
            got = json.loads(body)
        except ValueError:
            got = {}
        if (
            status != 200
            or got.get("endpoint") != "simulate"
            or got.get("cached") is not traffic.cached
            or _canonical(got.get("result")) != _canonical(expected)
        ):
            problems.append(f"request {index}: answer differs from queries ({status})")
    return problems


def _fixed_rung(
    server: Server, traffic, rng: random.Random, seconds: float, first: int
):
    """Open-loop rung at the workload's rate, long enough for a p99."""
    seconds = max(seconds, rung_seconds(traffic.fixed_rps))
    # Sample among the first 80% of the arrivals the rung surely makes.
    arrivals = max(int(traffic.fixed_rps * seconds * 0.8), CHECKED_RESPONSES)
    pool = range(first, first + arrivals)
    recorder = Recorder(traffic, frozenset(rng.sample(pool, CHECKED_RESPONSES)), {})
    rung = run_rung(server.port, recorder.send, traffic.fixed_rps, seconds, rng, first)
    return rung, recorder


def run(workload: str, seed: int, seconds: float, workdir: Path, traced: bool):
    traffic = TRAFFIC[workload](seed)
    rng = random.Random(seed ^ 0x5EED)
    if traced:
        return _run_traced(workload, traffic, rng, seconds, workdir)
    setups = []
    for k in range(SETUPS):
        server, setup_s, store = _boot(traffic, workdir, f"setup{k}")
        setups.append(setup_s)
        if k < SETUPS - 1:
            server.stop()
    try:
        rung, recorder = _fixed_rung(server, traffic, rng, seconds, 0)
        peak_rss = server.peak_rss_mib()
    finally:
        server.stop()
    problems = check_responses(traffic, recorder.responses, store)
    latencies = rung.latencies_ms
    if not latencies:
        raise BenchmarkError("the fixed rung completed no request")
    n = len(latencies)
    at_rate = f"of {n} requests at {traffic.fixed_rps:g} rps"
    tail_ms, tail_label = tail(latencies)
    if reportable(n, 99.0):
        tail_label += f"; p99 {percentile(latencies, 99.0):.3f} ms"
    metrics = {
        "setup_s": (
            statistics.median(setups),
            "s",
            f"median of {SETUPS} boots + warm-ups",
        ),
        "p50_ms": (percentile(latencies, 50.0), "ms", at_rate),
        "tail_ms": (tail_ms, "ms", f"{tail_label} {at_rate}"),
        "peak_rss_mib": (
            peak_rss,
            "MiB",
            f"summed VmHWM of {len(server.pids)} processes",
        ),
    }
    return Outcome(rung.attempted, rung.failed + len(problems), problems, metrics)


def _run_traced(workload, traffic, rng, seconds, workdir):
    """An untraced rung and closed-loop window, then a traced rung, each
    on a fresh server."""
    from layers import serve_layer_metrics

    rung_s = seconds / 2.0
    server, _, store = _boot(traffic, workdir, "plain")
    try:
        plain, plain_rec = _fixed_rung(server, traffic, rng, rung_s, 0)
        window = run_closed(server.port, plain_rec.send, seconds / 4.0, plain.planned)
    finally:
        server.stop()
    problems = check_responses(traffic, plain_rec.responses, store)
    probe_out = workdir / "probe"
    probe_out.mkdir()
    server, _, store = _boot(traffic, workdir, "traced", probe_out)
    try:
        # Zero the probe's counters: set-up traffic is not the workload.
        server.signal_all(signal.SIGUSR1)
        time.sleep(0.05)
        first = plain.planned + window.attempted
        traced, traced_rec = _fixed_rung(server, traffic, rng, rung_s, first)
    finally:
        server.stop()
    problems += check_responses(traffic, traced_rec.responses, store)
    metrics, layer_problems, notes = serve_layer_metrics(
        workload,
        probe_out,
        overhead_ratio=percentile(traced.latencies_ms, 50.0)
        / percentile(plain.latencies_ms, 50.0),
        late_ms_p99=percentile(plain.late_ms, 99.0),
        achieved_rps=plain.achieved_rps,
        closed_loop_rps=window.capacity_rps,
    )
    attempted = plain.attempted + window.attempted + traced.attempted
    failed = plain.failed + window.failed + traced.failed + len(problems)
    return Outcome(attempted, failed, problems + layer_problems, metrics, notes)
