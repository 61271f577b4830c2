"""Per-layer metrics of a traced run, read from the layer probe's files.

Each probed layer is named ``<module>.<function>`` after the program's
public function (``repro.`` dropped), and reports some of:

* ``calls`` - how many times it ran (summed over every process);
* ``self_s`` - its wall time minus that of probed calls inside it;
* ``p50_ms`` - median wall time per await, for coroutine layers;
* ``hit_ratio`` - share of calls that returned a value, for lookups
  that answer ``None`` on a miss;
* ``self_us_per_call`` - self time per call, for per-point kernels.

The tables below also say, per workload, which layers must run, which
are predicted never to run, and which lookups are predicted always to
hit.  A wiring root with no calls means the probe never loaded, so the
run fails; any other expectation or prediction that does not hold is
counted in ``probe.coverage_misses`` / ``probe.prediction_misses``.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections.abc import Callable
from pathlib import Path

from common import PROBE_DIR

if str(PROBE_DIR) not in sys.path:
    sys.path.insert(0, str(PROBE_DIR))

from perfbench_probe import LAYERS, layer_name  # noqa: E402

NAMES = [layer_name(module, qualname) for module, qualname in LAYERS]

#: Layers reported by call count alone.
COUNT_ONLY = {
    "cache.reuse.build_profile",
    "cache.events.extract_events",
    "cpu.replay.replay_fs_sweep",
    "cpu.processor.TimingSimulator.run",
}
#: Coroutine layers: wall time per await instead of self time.
ASYNC = {
    "service.app.ServiceApp.handle",
    "service.batching.MicroBatcher.submit",
    "service.router.Fleet.forward",
}
#: Lookups answering None on a miss.
HIT_RATIO = {
    "cache.events_store.load",
    "cache.reuse_store.load",
    "service.result_cache.ResultCache.get",
}
#: Per-point kernels.
PER_CALL = {"cpu.replay.replay", "service.queries.simulate_from_events"}

SUBMIT = "service.batching.MicroBatcher.submit"
HANDLE = "service.app.ServiceApp.handle"
RUN_EXPERIMENT = "experiments.registry.run_experiment"
#: Work the batch thread does for a submitted request.
BATCH_COMPUTE = (
    "service.queries.resolve_events",
    "service.queries.simulate_from_events",
)
#: Layers called directly inside a request's ``handle``.
HANDLE_CHILDREN_SELF = (
    "service.schemas.validate_simulate",
    "service.result_cache.ResultCache.get",
)
HANDLE_CHILDREN_WALL = (SUBMIT, "service.router.Fleet.forward")

_STEPPED = [
    "trace.spec92.WorkloadProfile.trace",
    "trace.multiprogram.pollution_sweep",
    "cache.victim.victim_hit_ratio_gain",
    "cache.prefetch.prefetch_covered_fraction",
    "cache.multilevel.stats_via_events",
]
_PAPER_COMMON = [
    "cache.events_store.load",
    "cpu.replay.replay",
    "cpu.replay.replay_mshr",
    *_STEPPED,
    "experiments._phi.measured_phi_percentages",
    "obs.manifest.write_manifest",
    RUN_EXPERIMENT,
]
_PHASE1_WORK = [
    "trace.spec92.WorkloadProfile.profile_arrays",
    "cache.reuse.derive_events",
    "cache.events_store.save",
    "cache.reuse_store.save",
]
_SERVE_COMMON = [
    "service.schemas.validate_simulate",
    "service.result_cache.ResultCache.get",
    "service.http11.render_response",
    HANDLE,
]
#: No workload's measured window runs the count-only layers.
_NEVER = sorted(COUNT_ONLY)

#: Layers each workload must run.
EXPECTED = {
    "paper-cold": [*_PAPER_COMMON, *_PHASE1_WORK, "cache.reuse_store.load"],
    "paper-warm": _PAPER_COMMON,
    "serve-hit": _SERVE_COMMON,
    "serve-miss": [
        *_SERVE_COMMON,
        SUBMIT,
        "service.queries.simulate_from_events",
        "cpu.replay.replay",
        "service.router.Fleet.forward",
    ],
}
#: Layers whose zero calls mean the probe is not wired in at all.
ROOTS = {
    "paper-cold": [RUN_EXPERIMENT],
    "paper-warm": [RUN_EXPERIMENT],
    "serve-hit": [HANDLE],
    "serve-miss": [HANDLE],
}
#: Layers predicted to make no call on each workload.
PREDICTED_ZERO = {
    "paper-cold": _NEVER,
    "paper-warm": [*_NEVER, *_PHASE1_WORK, "cache.reuse_store.load"],
    "serve-hit": [
        *_NEVER,
        SUBMIT,
        "service.queries.resolve_events",
        "service.queries.simulate_from_events",
        "service.router.Fleet.forward",
        "cpu.replay.replay",
    ],
    "serve-miss": _NEVER,
}
#: Lookups predicted to hit on every call.
PREDICTED_ALL_HITS = {
    "paper-warm": ["cache.events_store.load"],
    "serve-hit": ["service.result_cache.ResultCache.get"],
}


def _layer_metric_units(name: str) -> list[tuple[str, str, str]]:
    rows = [(f"{name}.calls", "count", "lower")]
    if name in ASYNC:
        rows.append((f"{name}.p50_ms", "ms", "lower"))
    elif name not in COUNT_ONLY:
        rows.append((f"{name}.self_s", "s", "lower"))
    if name in HIT_RATIO:
        rows.append((f"{name}.hit_ratio", "ratio", "higher"))
    if name in PER_CALL:
        rows.append((f"{name}.self_us_per_call", "us", "lower"))
    if name == SUBMIT:
        rows.append((f"{name}.wait_ms", "ms", "lower"))
    return rows


#: Every per-layer metric as ``(name, unit, better)``, in report order.
METRICS = [row for name in NAMES for row in _layer_metric_units(name)] + [
    ("runner.startup_s", "s", "lower"),
    ("loadgen.late_ms_p99", "ms", "lower"),
    ("loadgen.achieved_rps", "1/s", "higher"),
    ("loadgen.closed_loop_rps", "1/s", "higher"),
    ("probe.overhead_ratio", "ratio", "lower"),
    ("probe.unattributed_ratio", "ratio", "lower"),
    ("probe.missing_layers", "count", "lower"),
    ("probe.coverage_misses", "count", "lower"),
    ("probe.prediction_misses", "count", "lower"),
]


def merge(probe_out: Path) -> tuple[dict[str, dict], set[str], int]:
    """Sum every process's probe file; returns (layers, missing, files)."""
    merged = {
        name: {"calls": 0, "hits": 0, "wall_s": 0.0, "self_s": 0.0, "durations_s": []}
        for name in NAMES
    }
    missing: set[str] = set()
    files = sorted(probe_out.glob("*.json"))
    for path in files:
        document = json.loads(path.read_text())
        missing.update(document["missing"])
        for name, stat in document["layers"].items():
            if name in merged:
                total = merged[name]
                for key in ("calls", "hits", "wall_s", "self_s"):
                    total[key] += stat[key]
                total["durations_s"] += stat["durations_s"]
    return merged, missing, len(files)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _layer_values(layers: dict[str, dict]) -> dict[str, float]:
    values: dict[str, float] = {}
    for name in NAMES:
        stat = layers[name]
        values[f"{name}.calls"] = stat["calls"]
        if name in ASYNC:
            durations = stat["durations_s"] or [0.0]
            values[f"{name}.p50_ms"] = statistics.median(durations) * 1000.0
        elif name not in COUNT_ONLY:
            values[f"{name}.self_s"] = stat["self_s"]
        if name in HIT_RATIO:
            values[f"{name}.hit_ratio"] = _ratio(stat["hits"], stat["calls"])
        if name in PER_CALL:
            per_call = _ratio(stat["self_s"] * 1e6, stat["calls"])
            values[f"{name}.self_us_per_call"] = per_call
    submit = layers[SUBMIT]
    compute_s = sum(layers[name]["wall_s"] for name in BATCH_COMPUTE)
    values[f"{SUBMIT}.wait_ms"] = _ratio(
        max(submit["wall_s"] - compute_s, 0.0) * 1000.0, submit["calls"]
    )
    return values


def _checks(workload: str, layers: dict[str, dict], missing: set[str]):
    """(problems, coverage misses, prediction misses) for one workload."""
    problems = [
        f"probe recorded no call of {name}: it is not wired in"
        for name in ROOTS[workload]
        if layers[name]["calls"] == 0
    ]
    coverage = [
        name
        for name in EXPECTED[workload]
        if name not in missing and layers[name]["calls"] == 0
    ]
    predictions = [
        f"{name} ran {layers[name]['calls']} times"
        for name in PREDICTED_ZERO[workload]
        if layers[name]["calls"]
    ] + [
        f"{name} hit {layers[name]['hits']} of {layers[name]['calls']}"
        for name in PREDICTED_ALL_HITS.get(workload, [])
        if layers[name]["hits"] != layers[name]["calls"] or not layers[name]["calls"]
    ]
    return problems, coverage, predictions


def layer_metrics(
    workload: str,
    probe_out: Path,
    derived: Callable[[dict[str, dict]], dict[str, float]],
) -> tuple[dict[str, tuple[float, str, str]], list[str], list[str]]:
    """Every per-layer metric, plus (problems, notes) for the report.

    ``derived(layers)`` supplies the metrics the harness measures or
    computes for this workload (overhead, ``(other)`` share, ...).
    """
    layers, missing, files = merge(probe_out)
    problems, coverage, predictions = _checks(workload, layers, missing)
    if not files:
        problems.append("the probe wrote no file")
    values = _layer_values(layers)
    values["probe.missing_layers"] = len(missing)
    values["probe.coverage_misses"] = len(coverage)
    values["probe.prediction_misses"] = len(predictions)
    values.update(derived(layers))
    notes = [f"layer not found in the program: {name}" for name in sorted(missing)]
    notes += [f"expected layer made no call: {name}" for name in coverage]
    notes += [f"prediction missed: {text}" for text in predictions]
    metrics = {name: (values.get(name, 0.0), unit, "") for name, unit, _ in METRICS}
    return metrics, problems, notes


def paper_layer_metrics(
    workload: str, probe_out: Path, wall_s: float, overhead_ratio: float
):
    """The runner's layers; ``(other)`` is the process wall time outside
    every named layer (``run_experiment``'s self time is that residual)."""

    def derived(layers: dict[str, dict]) -> dict[str, float]:
        named = sum(
            stat["self_s"] for name, stat in layers.items() if name != RUN_EXPERIMENT
        )
        return {
            "runner.startup_s": wall_s - layers[RUN_EXPERIMENT]["wall_s"],
            "probe.overhead_ratio": overhead_ratio,
            "probe.unattributed_ratio": _ratio(max(wall_s - named, 0.0), wall_s),
        }

    return layer_metrics(workload, probe_out, derived)


def serve_layer_metrics(
    workload: str,
    probe_out: Path,
    overhead_ratio: float,
    late_ms_p99: float,
    achieved_rps: float,
    closed_loop_rps: float,
):
    """The server's layers; ``(other)`` is the share of ``handle`` time
    outside validation, the cache lookup, the batcher and the forward."""

    def derived(layers: dict[str, dict]) -> dict[str, float]:
        total = layers[HANDLE]["wall_s"]
        named = sum(layers[n]["self_s"] for n in HANDLE_CHILDREN_SELF) + sum(
            layers[n]["wall_s"] for n in HANDLE_CHILDREN_WALL
        )
        return {
            "loadgen.late_ms_p99": late_ms_p99,
            "loadgen.achieved_rps": achieved_rps,
            "loadgen.closed_loop_rps": closed_loop_rps,
            "probe.overhead_ratio": overhead_ratio,
            "probe.unattributed_ratio": _ratio(max(total - named, 0.0), total),
        }

    return layer_metrics(workload, probe_out, derived)
