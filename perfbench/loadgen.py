"""HTTP load generation: an open-loop fixed rung and a closed-loop window.

Load comes from this one process: ``SENDERS`` threads, each owning one
keep-alive connection.

* The fixed rung is open loop: arrivals follow a seeded Poisson
  schedule and every request is timed from its *intended* send time, so
  a stalled server is charged for the wait it imposes on later requests
  (no coordinated omission).  How late the generator itself ran is
  recorded beside the latencies.
* The capacity window is closed loop: each sender issues its next
  request as soon as the previous one answers, so the completion rate
  is the most the server sustains for ``SENDERS`` concurrent clients.
"""

from __future__ import annotations

import http.client
import math
import random
import statistics
import sys
import threading
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field

#: Sender threads and keep-alive connections (the host has 2 CPUs).
SENDERS = 2
#: A percentile is reported only with at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10
#: The percentile ``tail_ms`` reports.  Over 10 runs per serve workload
#: p99's interquartile spread was 22-27% of its median (one host stall
#: moves it) against 8-17% for p90, so p90 is gated and p99 printed.
TAIL_PERCENTILE = 90.0
#: A rung whose generator falls this far behind schedule stops; the
#: requests it never sent count as failed.
ABORT_LATE_S = 2.0
#: GIL hand-off interval while senders run: the default 5 ms would add
#: up to 5 ms to a response that arrives while the other sender holds it.
SWITCH_INTERVAL_S = 0.0002


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of ``values`` (which need not be sorted)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def reportable(samples: int, pct: float) -> bool:
    """Whether ``samples`` leave ``MIN_TAIL_SAMPLES`` beyond ``pct``."""
    return samples * (100.0 - pct) / 100.0 >= MIN_TAIL_SAMPLES - 1e-9


def tail(values: Sequence[float]) -> tuple[float, str]:
    """``TAIL_PERCENTILE`` of ``values`` and a label saying what it is.

    Too few samples for that percentile (under 100 for p90) leave none
    above the median worth reporting, so the median stands in.
    """
    if reportable(len(values), TAIL_PERCENTILE):
        return percentile(values, TAIL_PERCENTILE), f"p{TAIL_PERCENTILE:g}"
    return statistics.median(values), "median (too few samples for a tail)"


def rung_seconds(rate: float, pct: float = 99.0) -> float:
    """How long a rung at ``rate`` runs so that its ``pct`` is reportable.

    A rung planned for 15% more arrivals than the percentile needs falls
    short of them about one time in a million (the count is Poisson).
    """
    return MIN_TAIL_SAMPLES * 100.0 / (100.0 - pct) * 1.15 / rate


def poisson_schedule(rate: float, seconds: float, rng: random.Random) -> list[float]:
    """Intended send offsets (seconds from the rung start)."""
    schedule = []
    t = rng.expovariate(rate)
    while t < seconds:
        schedule.append(t)
        t += rng.expovariate(rate)
    return schedule


@dataclass
class Rung:
    """What one open-loop rung measured."""

    planned: int
    latencies_ms: list[float] = field(default_factory=list)
    late_ms: list[float] = field(default_factory=list)
    failed: int = 0
    elapsed_s: float = 0.0

    @property
    def attempted(self) -> int:
        return self.planned

    @property
    def achieved_rps(self) -> float:
        return len(self.latencies_ms) / self.elapsed_s if self.elapsed_s else 0.0


class Connection:
    """One keep-alive HTTP/1.1 connection that POSTs JSON bodies."""

    def __init__(self, port: int, timeout_s: float = 30.0) -> None:
        self._port = port
        self._timeout_s = timeout_s
        self._http: http.client.HTTPConnection | None = None

    def post(self, path: str, body: bytes) -> tuple[int, bytes]:
        """Send one request; returns (status, body).  Transport errors
        drop the connection (the next call reconnects) and propagate."""
        if self._http is None:
            self._http = http.client.HTTPConnection(
                "127.0.0.1", self._port, timeout=self._timeout_s
            )
        try:
            self._http.request(
                "POST", path, body, {"Content-Type": "application/json"}
            )
            response = self._http.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            raise

    def close(self) -> None:
        if self._http is not None:
            self._http.close()
            self._http = None


#: ``send(connection, index) -> ok``: issues request ``index`` and says
#: whether it succeeded.
Send = Callable[[Connection, int], bool]


def _send(send: Send, connection: Connection, index: int) -> bool:
    try:
        return send(connection, index)
    except (OSError, http.client.HTTPException):
        return False


def _run_senders(port: int, loop: Callable[[Connection], None]) -> None:
    """Run ``loop(connection)`` on ``SENDERS`` threads until all return."""

    def sender() -> None:
        connection = Connection(port)
        try:
            loop(connection)
        finally:
            connection.close()

    threads = [
        threading.Thread(target=sender, name=f"perfbench-sender-{i}")
        for i in range(SENDERS)
    ]
    previous_interval = sys.getswitchinterval()
    sys.setswitchinterval(SWITCH_INTERVAL_S)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(previous_interval)


def run_rung(
    port: int,
    send: Send,
    rate: float,
    seconds: float,
    rng: random.Random,
    first_index: int = 0,
) -> Rung:
    """Offer ``rate`` requests/s for ``seconds`` (open loop).

    Request ``first_index + k`` goes out at the ``k``-th Poisson arrival.
    """
    schedule = poisson_schedule(rate, seconds, rng)
    rung = Rung(planned=len(schedule))
    lock = threading.Lock()
    cursor = [0]
    epoch = time.perf_counter() + 0.02  # every sender reaches its loop

    def loop(connection: Connection) -> None:
        while True:
            with lock:
                k = cursor[0]
                if k >= len(schedule):
                    return
                cursor[0] = k + 1
            intended = epoch + schedule[k]
            now = time.perf_counter()
            if now < intended:
                time.sleep(intended - now)
                now = time.perf_counter()
            if now - intended > ABORT_LATE_S:
                with lock:
                    rung.failed += len(schedule) - cursor[0] + 1
                    cursor[0] = len(schedule)
                return
            ok = _send(send, connection, first_index + k)
            done = time.perf_counter()
            with lock:
                rung.late_ms.append((now - intended) * 1000.0)
                if ok:
                    rung.latencies_ms.append((done - intended) * 1000.0)
                else:
                    rung.failed += 1

    _run_senders(port, loop)
    rung.elapsed_s = max(time.perf_counter() - epoch, seconds)
    return rung


#: Bucket width of the closed-loop window; capacity is the median bucket,
#: so a short stall of the host costs one bucket, not the whole window.
BUCKET_S = 0.5


@dataclass
class Window:
    """What one closed-loop window measured."""

    completions: list[float] = field(default_factory=list)
    failed: int = 0
    elapsed_s: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.completions) + self.failed

    @property
    def capacity_rps(self) -> float:
        """Median completions per second over the window's full buckets."""
        buckets = [0] * max(int(self.elapsed_s / BUCKET_S), 1)
        for t in self.completions:
            slot = int(t / BUCKET_S)
            if slot < len(buckets):
                buckets[slot] += 1
        return statistics.median(buckets) / BUCKET_S


def run_closed(port: int, send: Send, seconds: float, first_index: int = 0) -> Window:
    """Back-to-back requests from every sender for ``seconds``."""
    window = Window()
    lock = threading.Lock()
    cursor = [first_index]
    start = time.perf_counter()
    deadline = start + seconds

    def loop(connection: Connection) -> None:
        while time.perf_counter() < deadline:
            with lock:
                index = cursor[0]
                cursor[0] += 1
            ok = _send(send, connection, index)
            done = time.perf_counter() - start
            with lock:
                if ok:
                    window.completions.append(done)
                else:
                    window.failed += 1

    _run_senders(port, loop)
    window.elapsed_s = time.perf_counter() - start
    return window
