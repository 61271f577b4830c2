"""Tests of the benchmark harness itself (no program process is started).

    python -m pytest perfbench/test_suite.py
"""

from __future__ import annotations

import asyncio
import importlib
import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402
import compare  # noqa: E402
import layers  # noqa: E402
import loadgen  # noqa: E402
import paper  # noqa: E402
import serve  # noqa: E402
from perfbench_probe import Finder, Probe  # noqa: E402

# -- percentiles and rung sizing -----------------------------------------------


@pytest.mark.parametrize(
    "samples, pct, expected",
    [
        (10_000, 99.9, True),
        (9_999, 99.9, False),
        (1_000, 99.0, True),
        (999, 99.0, False),
        (100, 90.0, True),
        (99, 90.0, False),
    ],
)
def test_percentile_needs_ten_samples_beyond(samples, pct, expected):
    assert loadgen.reportable(samples, pct) is expected


def test_tail_falls_back_to_the_median_on_few_samples():
    assert loadgen.tail([5.0, 1.0, 3.0]) == (3.0, "median (too few samples for a tail)")
    values = [float(v) for v in range(1, 101)]
    assert loadgen.tail(values) == (90.0, "p90")


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    random.Random(1).shuffle(values)
    assert loadgen.percentile(values, 50.0) == 50
    assert loadgen.percentile(values, 99.0) == 99
    assert loadgen.percentile(values, 100.0) == 100
    assert loadgen.percentile([7.0], 99.0) == 7.0
    with pytest.raises(ValueError):
        loadgen.percentile([], 50.0)


@pytest.mark.parametrize("rate", [50.0, 100.0, 400.0, 3000.0])
def test_rung_is_long_enough_for_its_percentile(rate):
    for pct in (99.0, 95.0):
        seconds = loadgen.rung_seconds(rate, pct)
        needed = loadgen.MIN_TAIL_SAMPLES * 100.0 / (100.0 - pct)
        assert rate * seconds >= 1.15 * needed - 1e-9
        # A Poisson count with that mean yields the percentile's samples.
        counts = [
            len(loadgen.poisson_schedule(rate, seconds, random.Random(seed)))
            for seed in range(20)
        ]
        assert loadgen.reportable(min(counts), pct)


def test_poisson_schedule_is_seeded_and_bounded():
    a = loadgen.poisson_schedule(400.0, 2.0, random.Random(5))
    b = loadgen.poisson_schedule(400.0, 2.0, random.Random(5))
    c = loadgen.poisson_schedule(400.0, 2.0, random.Random(6))
    assert a == b != c
    assert all(0.0 < t < 2.0 for t in a)
    assert a == sorted(a)
    assert 700 < len(a) < 900


def test_closed_loop_capacity_is_the_median_bucket():
    window = loadgen.Window(elapsed_s=2.2)
    # 4 full buckets of 0.5 s hold 10, 12, 2 (a stall) and 11 completions.
    for bucket, count in enumerate([10, 12, 2, 11]):
        window.completions += [bucket * 0.5 + 0.01 * k for k in range(count)]
    window.completions.append(2.1)  # the partial last bucket is dropped
    assert window.capacity_rps == pytest.approx(10.5 / 0.5)
    assert window.attempted == 36


# -- traffic -------------------------------------------------------------------


def test_miss_traffic_never_repeats_a_request():
    traffic = serve.MissTraffic(seed=3)
    seen = {json.dumps(traffic.params(i), sort_keys=True) for i in range(20_000)}
    assert len(seen) == 20_000
    warm = {
        (p["trace"]["name"], p["cache"]["total_bytes"]) for p in traffic.warm_params()
    }
    assert len(warm) == 12
    assert all(traffic.params(i)["memory_cycle"] >= 4.0 for i in range(1000))


def test_hit_traffic_only_asks_warmed_points():
    traffic = serve.HitTraffic(seed=3)
    warmed = {json.dumps(p, sort_keys=True) for p in traffic.warm_params()}
    assert len(warmed) == 160
    asked = {json.dumps(traffic.params(i), sort_keys=True) for i in range(5000)}
    assert asked <= warmed


def test_seed_changes_the_traffic():
    assert serve.HitTraffic(1).points != serve.HitTraffic(2).points
    assert serve.HitTraffic(1).params(9) == serve.HitTraffic(1).params(9)
    assert serve.MissTraffic(1).params(0) != serve.MissTraffic(2).params(0)
    assert serve.MissTraffic(1).params(7) == serve.MissTraffic(1).params(7)


# -- output checks -------------------------------------------------------------


def test_tree_problems_ignore_manifests_and_catch_differences(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for root in (a, b):
        root.mkdir()
        (root / "figure1.csv").write_text("x,y\n1,2\n")
    (a / "figure1.meta.json").write_text('{"wall_time_s": 1}')
    (b / "figure1.meta.json").write_text('{"wall_time_s": 2}')
    reference = paper.tree_bytes(a)
    assert paper.tree_problems(reference, b, "rep1") == []
    (b / "figure1.csv").write_text("x,y\n1,3\n")
    (b / "extra.txt").write_text("")
    assert paper.tree_problems(reference, b, "rep1") == [
        "rep1: extra.txt differs",
        "rep1: figure1.csv differs",
    ]


# -- compare verdicts ----------------------------------------------------------


@pytest.mark.parametrize(
    "a, b, better, expected",
    [
        ([100, 101, 99, 100], [103, 102, 104, 103], "lower", "same"),
        ([100, 101, 99, 100], [120, 121, 119, 120], "lower", "worse"),
        ([100, 101, 99, 100], [80, 81, 79, 80], "lower", "better"),
        ([100, 101, 99, 100], [80, 81, 79, 80], "higher", "worse"),
        ([100, 101, 99, 100], [120, 121, 119, 120], "higher", "better"),
        # Spread wider than the bound: a 12% median move is not resolvable...
        ([100, 70, 130, 100], [112, 82, 142, 112], "lower", "unresolved"),
        # ...unless every B run beats every A run by more than A's spread.
        ([100, 99, 101, 100], [60, 40, 80, 60], "lower", "better"),
    ],
)
def test_compare_verdicts(a, b, better, expected):
    assert compare.verdict(a, b, better, 0.10)[0] == expected


def test_compare_reads_bounds_and_result_files(tmp_path):
    bounds = compare.load_bounds()
    assert bounds["setup_s"][1] == max(bound for _, bound in bounds.values())

    def result(value):
        return {"workload": "serve-hit", "trace": 0, "correct": True,
                "metrics": {"p50_ms": {"value": value, "unit": "ms"}}}

    (tmp_path / "a").mkdir()
    for k, value in enumerate([1.0, 1.01, 0.99]):
        (tmp_path / "a" / f"{k}.json").write_text(json.dumps(result(value)))
    (tmp_path / "b.json").write_text(json.dumps([result(2.0), result(2.1)]))
    rows = compare.compare(
        compare.load_results([tmp_path / "a"]),
        compare.load_results([tmp_path / "b.json"]),
        {"p50_ms": ("lower", 0.1)},
    )
    assert [(r[0], r[1], r[2]) for r in rows] == [("serve-hit", "p50_ms", "worse")]


# -- BENCHMARK.json agrees with the harness ------------------------------------


def test_benchmark_json_lists_what_the_suite_reports():
    document = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in document["workloads"]] == [
        "paper-cold", "paper-warm", "serve-hit", "serve-miss"
    ]
    assert [m["name"] for m in document["end_to_end"]] == list(common.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in document["per_layer"]] == [
        tuple(row) for row in layers.METRICS
    ]
    assert document["command"] == ["python3", "perfbench/suite.py"]


# -- the layer probe -----------------------------------------------------------

FAKE_A = '''
import asyncio
import time

def inner(delay):
    time.sleep(delay)
    return None

def outer(delay):
    time.sleep(delay)
    inner(delay)
    inner(delay)
    return "value"

async def waiting(delay):
    await asyncio.sleep(delay)

class Store:
    def get(self, key):
        return key or None
'''

FAKE_B = '''
from probefake.a import inner, outer

def call_copy():
    return outer(0.0)

def with_default(compute=inner):
    return compute

class Batcher:
    def __init__(self, compute=inner):
        self.compute = compute
'''

FAKE_LAYERS = (
    ("probefake.a", "inner"),
    ("probefake.a", "outer"),
    ("probefake.a", "waiting"),
    ("probefake.a", "Store.get"),
    ("probefake.a", "absent"),
)


@pytest.fixture
def probed(tmp_path):
    """Import a fake package under a probe; yields (probe, a, b)."""
    package = tmp_path / "pkg" / "probefake"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "a.py").write_text(FAKE_A)
    (package / "b.py").write_text(FAKE_B)
    probe = Probe(str(tmp_path), layers=FAKE_LAYERS, package="probefake")
    finder = Finder(probe)
    sys.path.insert(0, str(tmp_path / "pkg"))
    sys.meta_path.insert(0, finder)
    try:
        a = importlib.import_module("probefake.a")
        b = importlib.import_module("probefake.b")
        yield probe, a, b
    finally:
        sys.meta_path.remove(finder)
        sys.path.remove(str(tmp_path / "pkg"))
        for name in [n for n in sys.modules if probe.owns(n)]:
            del sys.modules[name]


def test_probe_self_time_excludes_nested_calls(probed):
    probe, a, _ = probed
    assert a.outer(0.02) == "value"
    outer, inner = probe.stats["a.outer"], probe.stats["a.inner"]
    assert (outer.calls, inner.calls) == (1, 2)
    assert inner.self_s == inner.wall_s >= 0.04
    assert outer.self_s == pytest.approx(outer.wall_s - inner.wall_s, abs=1e-9)
    assert 0.02 <= outer.self_s < inner.wall_s


def test_probe_records_async_wall_time(probed):
    probe, a, _ = probed

    async def main():
        await asyncio.gather(a.waiting(0.03), a.waiting(0.03))

    asyncio.run(main())
    stat = probe.stats["a.waiting"]
    assert stat.calls == 2
    assert len(stat.durations_s) == 2
    assert all(d >= 0.03 for d in stat.durations_s)
    assert stat.self_s == 0.0  # awaits interleave: only wall time is kept


def test_probe_rebinds_copies_and_defaults(probed):
    probe, a, b = probed
    assert b.outer is a.outer and b.inner is a.inner  # the wrappers
    assert b.with_default() is a.inner
    assert b.Batcher().compute is a.inner
    b.call_copy()
    assert probe.stats["a.outer"].calls == 1
    assert probe.missing == ["a.absent"]


def test_probe_counts_hits_resets_and_dumps(probed, tmp_path):
    probe, a, _ = probed
    store = a.Store()
    for key in ("x", "", "y"):
        store.get(key)
    assert (probe.stats["a.Store.get"].calls, probe.stats["a.Store.get"].hits) == (3, 2)
    probe.reset()
    assert probe.stats["a.Store.get"].calls == 0
    store.get("z")  # the wrappers survive the reset
    probe.dump()
    dumped = json.loads(next(tmp_path.glob("*.json")).read_text())
    assert dumped["layers"]["a.Store.get"]["calls"] == 1
    assert dumped["missing"] == ["a.absent"]


# -- per-layer metrics from probe files ----------------------------------------


def _probe_file(directory: Path, pid: int, stats: dict) -> None:
    layers_doc = {
        name: {"calls": 0, "hits": 0, "wall_s": 0.0, "self_s": 0.0, "durations_s": []}
        for name in layers.NAMES
    }
    for name, values in stats.items():
        layers_doc[name].update(values)
    (directory / f"{pid}.json").write_text(
        json.dumps({"pid": pid, "argv": [], "missing": [], "layers": layers_doc})
    )


def test_serve_layer_metrics_merge_processes_and_check_predictions(tmp_path):
    handle = "service.app.ServiceApp.handle"
    get = "service.result_cache.ResultCache.get"
    _probe_file(
        tmp_path,
        1,
        {
            handle: {"calls": 2, "wall_s": 0.004, "durations_s": [0.001, 0.003]},
            get: {"calls": 2, "hits": 2, "self_s": 0.001},
        },
    )
    _probe_file(
        tmp_path,
        2,
        {
            handle: {"calls": 1, "wall_s": 0.002, "durations_s": [0.002]},
            get: {"calls": 1, "hits": 0, "self_s": 0.0005},
        },
    )
    metrics, problems, notes = layers.serve_layer_metrics(
        "serve-hit",
        tmp_path,
        overhead_ratio=1.1,
        late_ms_p99=0.5,
        achieved_rps=399.0,
        closed_loop_rps=3000.0,
    )
    value = {name: v for name, (v, _, _) in metrics.items()}
    assert value[f"{handle}.calls"] == 3
    assert value[f"{handle}.p50_ms"] == pytest.approx(2.0)
    assert value[f"{get}.hit_ratio"] == pytest.approx(2 / 3)
    assert value["probe.unattributed_ratio"] == pytest.approx((0.006 - 0.0015) / 0.006)
    # Validation and rendering never ran, and one lookup missed.
    assert value["probe.coverage_misses"] == 2
    assert value["probe.prediction_misses"] == 1
    assert problems == []
    assert list(metrics) == [name for name, _, _ in layers.METRICS]


def test_unwired_probe_fails_the_run(tmp_path):
    _probe_file(tmp_path, 1, {})
    _, problems, _ = layers.paper_layer_metrics(
        "paper-cold", tmp_path, wall_s=5.0, overhead_ratio=1.0
    )
    assert problems and "run_experiment" in problems[0]
