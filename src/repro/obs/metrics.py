"""Counters, histograms, and the Eq. (2) cycle breakdown.

A :class:`MetricsRegistry` accumulates named, optionally labeled
counters and histograms.  Like tracing, collection is off by default:
the module-level :func:`inc` / :func:`observe` helpers are no-ops after
one global load while no registry is installed, so the hot layers stay
instrumented permanently at negligible cost.

Determinism is a first-class property.  Counter keys are canonical
(labels sorted into the key), snapshots serialize with sorted keys, and
:meth:`MetricsRegistry.merge` folds per-experiment snapshots together in
the caller's order — the experiment runner merges worker snapshots in
*request* order, which is why a ``--jobs N`` aggregate is byte-identical
to a sequential one (see ``docs/OBSERVABILITY.md`` for the full
argument, including why the φ memo caches are cleared per experiment
while collection is on).

The Eq. (2) breakdown (:func:`eq2_breakdown`, :func:`record_timing`)
decomposes a :class:`~repro.cpu.processor.TimingResult` into the paper's
terms — execute, read-miss stall, copy-back (flush) stall, and
write-buffer stall cycles — and self-checks that the terms sum back to
the simulator's total cycle count.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any

from repro.util.jsonout import dump_json

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (cpu imports obs)
    from repro.cpu.processor import TimingResult

#: Counter names for the Eq. (2) terms, in paper order.  ``execute``
#: is everything that is not an attributed stall (the ``E - Lambda_m``
#: issue slots plus the per-miss ``beta_m`` the breakdown leaves with
#: the read term).
EQ2_TERMS = (
    "eq2.execute_cycles",
    "eq2.read_stall_cycles",
    "eq2.flush_stall_cycles",
    "eq2.write_buffer_stall_cycles",
)


class Eq2MismatchError(AssertionError):
    """The Eq. (2) terms failed to reconstruct the total cycle count."""


class MetricsRegistry:
    """Accumulates counters and histograms; merges deterministically."""

    def __init__(self) -> None:
        self._counters: dict[str, int | float] = {}
        self._histograms: dict[str, dict[str, float]] = {}

    # -- recording ------------------------------------------------------

    @staticmethod
    def _key(name: str, labels: dict[str, Any]) -> str:
        if not labels:
            return name
        inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
        return f"{name}{{{inner}}}"

    def inc(self, name: str, value: int | float = 1, **labels: Any) -> None:
        """Add ``value`` to a counter (created at zero)."""
        key = self._key(name, labels)
        self._counters[key] = self._counters.get(key, 0) + value

    def observe(self, name: str, value: float, **labels: Any) -> None:
        """Fold one observation into a histogram (count/sum/min/max)."""
        key = self._key(name, labels)
        entry = self._histograms.get(key)
        value = float(value)
        if entry is None:
            self._histograms[key] = {
                "count": 1,
                "sum": value,
                "min": value,
                "max": value,
            }
            return
        entry["count"] += 1
        entry["sum"] += value
        if value < entry["min"]:
            entry["min"] = value
        if value > entry["max"]:
            entry["max"] = value

    # -- aggregation ----------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Plain-dict view (picklable, JSON-ready), keys sorted."""
        return {
            "counters": {k: self._counters[k] for k in sorted(self._counters)},
            "histograms": {
                k: dict(self._histograms[k]) for k in sorted(self._histograms)
            },
        }

    def merge(self, snapshot: dict[str, Any]) -> None:
        """Fold another registry's snapshot into this one.

        Callers must merge snapshots in a deterministic order (the
        runner uses experiment request order) for float sums to be
        bit-reproducible.
        """
        for key, value in snapshot.get("counters", {}).items():
            self._counters[key] = self._counters.get(key, 0) + value
        for key, their in snapshot.get("histograms", {}).items():
            mine = self._histograms.get(key)
            if mine is None:
                self._histograms[key] = dict(their)
                continue
            mine["count"] += their["count"]
            mine["sum"] += their["sum"]
            if their["min"] < mine["min"]:
                mine["min"] = their["min"]
            if their["max"] > mine["max"]:
                mine["max"] = their["max"]

    def counter(self, name: str, **labels: Any) -> int | float:
        """Current value of one counter (0 when never incremented)."""
        return self._counters.get(self._key(name, labels), 0)

    def to_json(self) -> str:
        """Deterministic JSON rendering of :meth:`snapshot`."""
        return dump_json({"schema": SNAPSHOT_SCHEMA, **self.snapshot()})


#: Schema tag written into exported snapshots (checked by
#: :mod:`repro.obs.schemas`).
SNAPSHOT_SCHEMA = "repro.obs.metrics/1"

#: The process-wide registry, or ``None`` while collection is disabled.
_ACTIVE: MetricsRegistry | None = None


def enable_metrics() -> MetricsRegistry:
    """Install (and return) a fresh process-wide registry."""
    global _ACTIVE
    _ACTIVE = MetricsRegistry()
    return _ACTIVE


def disable_metrics() -> MetricsRegistry | None:
    """Stop collecting; returns the registry that was active, if any."""
    global _ACTIVE
    registry, _ACTIVE = _ACTIVE, None
    return registry


def metrics_enabled() -> bool:
    """Whether counters are currently being recorded."""
    return _ACTIVE is not None


def current_metrics() -> MetricsRegistry | None:
    """The active registry, or ``None``."""
    return _ACTIVE


def inc(name: str, value: int | float = 1, **labels: Any) -> None:
    """Module-level counter increment; no-op while collection is off."""
    registry = _ACTIVE
    if registry is not None:
        registry.inc(name, value, **labels)


def observe(name: str, value: float, **labels: Any) -> None:
    """Module-level histogram observation; no-op while collection is off."""
    registry = _ACTIVE
    if registry is not None:
        registry.observe(name, value, **labels)


def percentile(values: "list[float] | tuple[float, ...]", q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in [0, 100]).

    Deterministic (no interpolation, so the result is always a member of
    ``values``) and dependency-free; the service's latency summaries and
    the load generator both use it so their p50/p99 agree by
    construction.  Raises ``ValueError`` on an empty sample.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be within [0, 100], got {q}")
    ordered = sorted(values)
    if q == 0.0:
        return ordered[0]
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[rank - 1]


# -- Eq. (2) decomposition ----------------------------------------------


def eq2_sum_matches(terms_sum: float, total: float) -> bool:
    """Whether Eq. (2) terms summing to ``terms_sum`` reconstruct
    ``total``: exactly, or within float rounding of sums accumulated in
    different orders (``rel_tol=1e-12``, ``abs_tol=1e-9``)."""
    return terms_sum == total or math.isclose(
        terms_sum, total, rel_tol=1e-12, abs_tol=1e-9
    )


def eq2_breakdown(result: "TimingResult") -> dict[str, float]:
    """Decompose a timing result into the paper's Eq. (2) terms.

    Returns ``{execute, read_stall, flush_stall, write_buffer_stall,
    total}_cycles`` where ``total_cycles`` is the *sum of the four
    terms* — exact by construction — and the self-check verifies that
    this sum reconstructs the simulator's ``result.cycles``.  With the
    integer/dyadic ``beta_m`` grids the experiments use, every term is
    exactly representable and the reconstruction is bit-exact; a
    genuine accounting bug raises :class:`Eq2MismatchError`.
    """
    read = result.read_miss_stall_cycles
    flush = result.flush_stall_cycles
    write = result.write_stall_cycles
    execute = result.cycles - read - flush - write
    total = execute + read + flush + write
    if not eq2_sum_matches(total, result.cycles):
        raise Eq2MismatchError(
            f"Eq. 2 terms sum to {total!r}, simulator reported "
            f"{result.cycles!r} cycles (execute={execute!r}, read={read!r}, "
            f"flush={flush!r}, write_buffer={write!r})"
        )
    return {
        "execute_cycles": execute,
        "read_stall_cycles": read,
        "flush_stall_cycles": flush,
        "write_buffer_stall_cycles": write,
        "total_cycles": total,
    }


def record_timing(engine: str, result: "TimingResult") -> None:
    """Fold one simulation's dispatch + Eq. (2) terms into the metrics.

    ``engine`` is ``"replay"`` (two-phase timing replay) or ``"step"``
    (the step-simulator oracle).  No-op while collection is off; the
    breakdown self-check runs on every recorded result.
    """
    registry = _ACTIVE
    if registry is None or not math.isfinite(result.cycles):
        # An overflowed total has no Eq. (2) terms to check or sum; the
        # service rejects it as invalid input (repro.service.queries).
        return
    breakdown = eq2_breakdown(result)
    registry.inc(f"engine.{engine}.calls")
    registry.inc(f"engine.{engine}.instructions", result.instructions)
    registry.inc("eq2.execute_cycles", breakdown["execute_cycles"])
    registry.inc("eq2.read_stall_cycles", breakdown["read_stall_cycles"])
    registry.inc("eq2.flush_stall_cycles", breakdown["flush_stall_cycles"])
    registry.inc(
        "eq2.write_buffer_stall_cycles", breakdown["write_buffer_stall_cycles"]
    )
    registry.inc("eq2.total_cycles", breakdown["total_cycles"])
