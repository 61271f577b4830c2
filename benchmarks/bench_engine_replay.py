"""Benchmark: the two-phase engine's stages in isolation.

The measurements bracket the engine (see docs/ENGINE.md):

* phase 1, stepping — one functional ``Cache`` pass over a
  60k-instruction trace, producing the compact event stream (the oracle
  path);
* phase 1, reuse — the same stream via the reuse-distance engine:
  profile the trace once, derive the geometry's events from it, plus
  the *marginal* cost of deriving one more geometry from a warm
  profile (the number a geometry sweep actually pays per point);
* phase 2 — one timing replay over that stream, i.e. the marginal cost
  of a (policy, ``beta_m``) grid point (compare ``test_step_simulator``
  below: the cost of the same point through the legacy step simulator);
* end to end — the full quick-mode Figure 1 through the registry.

Besides the pytest-benchmark entry points, this file doubles as a
script that writes the machine-readable scoreboard the repo commits as
``BENCH_engine.json``::

    PYTHONPATH=src python benchmarks/bench_engine_replay.py --out BENCH_engine.json

Each entry reports best-of-N wall-clock seconds plus the engine metrics
snapshot collected during the timed run, so a reviewer can see both how
fast a stage is and what it actually did (fills, replay calls, Eq. (2)
cycles).
"""

import pytest

from repro.cache.cache import CacheConfig
from repro.cache.events import extract_events
from repro.core.stalling import StallPolicy
from repro.cpu.processor import TimingSimulator
from repro.cpu.replay import replay
from repro.experiments.registry import run_experiment
from repro.memory.mainmem import MainMemory
from repro.trace.spec92 import spec92_trace

CACHE = CacheConfig(8192, 32, 2)


@pytest.fixture(scope="module")
def trace():
    return spec92_trace("nasa7", 60_000, seed=7)


@pytest.fixture(scope="module")
def events(trace):
    return extract_events(trace, CACHE)


def test_phase1_extraction(benchmark, trace):
    benchmark(extract_events, trace, CACHE)


def test_phase1_reuse(benchmark, trace):
    """Profile + derive through the reuse engine (same stream, cold)."""
    from repro.cache.reuse import build_profile, derive_events

    benchmark(lambda: derive_events(build_profile(trace), CACHE))


def test_phase2_replay_point(benchmark, events):
    memory = MainMemory(8.0, 4)
    events.derived  # build the per-fill structures once, outside the timer
    benchmark(replay, events, memory, StallPolicy.BUS_NOT_LOCKED_1)


def test_step_simulator_point(benchmark, trace):
    """The same grid point through the legacy oracle, for comparison."""
    simulator = TimingSimulator(
        CACHE, MainMemory(8.0, 4), policy=StallPolicy.BUS_NOT_LOCKED_1
    )
    benchmark.pedantic(simulator.run, args=(trace,), rounds=3, iterations=1)


def test_figure1_end_to_end(benchmark, quick):
    benchmark.pedantic(
        run_experiment, args=("figure1", quick), rounds=1, iterations=1
    )


# -- script mode: write BENCH_engine.json --------------------------------


def _timed(fn, rounds):
    """Best-of-``rounds`` wall-clock seconds for ``fn()``."""
    import time

    best = None
    for _ in range(rounds):
        started = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
    return best


def _dispatch_counts(snapshot: dict) -> dict:
    """Per-engine dispatch summary from an ``--all --quick`` snapshot."""
    counters = snapshot["counters"]
    prefix = "engine.step_fallback.dispatches{reason="
    reasons = {}
    for key, value in counters.items():
        if key.startswith(prefix):
            reasons[key[len(prefix):].rstrip("}")] = value
    return {
        "replay_calls": counters.get("engine.replay.calls", 0),
        "step_calls": counters.get("engine.step.calls", 0),
        "step_fallback_reasons": reasons,
        "phase1": _phase1_dispatch_counts(snapshot),
    }


def _phase1_dispatch_counts(snapshot: dict) -> dict:
    """Reuse-vs-step phase-1 extraction counts from a metrics snapshot.

    Parses the labeled ``engine.phase1.dispatches{engine=…,reason=…}``
    counters.  Only *cold* extractions dispatch (warm runs load streams
    from disk), so on an LRU-only registry sweep ``step_calls`` must be
    0 — the /4 scoreboard schema rejects anything else.
    """
    counters = snapshot["counters"]
    prefix = "engine.phase1.dispatches{"
    reuse_calls = 0
    step_calls = 0
    step_reasons: dict = {}
    for key, value in counters.items():
        if not key.startswith(prefix):
            continue
        labels = dict(
            part.split("=", 1)
            for part in key[len(prefix):].rstrip("}").split(",")
        )
        if labels.get("engine") == "reuse":
            reuse_calls += value
        else:
            reason = labels.get("reason", "unknown")
            step_calls += value
            step_reasons[reason] = step_reasons.get(reason, 0) + value
    return {
        "reuse_calls": reuse_calls,
        "step_calls": step_calls,
        "step_reasons": step_reasons,
    }


def _run_all(quick: bool) -> None:
    from repro.experiments.registry import EXPERIMENTS

    for experiment_id in EXPERIMENTS:
        run_experiment(experiment_id, quick=quick)


def collect(full: bool = False) -> dict:
    """Measure every stage and return the BENCH_engine document.

    The whole collection runs against a private, initially empty
    on-disk events cache (a temp dir), so timings are reproducible:
    ``all_quick_s`` and ``all_full_cold_s`` measure a cold store,
    ``all_full_warm_s`` the same sweep again with the store populated.
    """
    import os
    import shutil
    import tempfile
    import time

    from _provenance import bench_provenance

    from repro.cache.events_store import EVENTS_CACHE_DIR_ENV
    from repro.cache.reuse import build_profile, derive_events
    from repro.experiments._phi import clear_caches
    from repro.obs import metrics
    from repro.obs.schemas import BENCH_ENGINE_SCHEMA

    bench_trace = spec92_trace("nasa7", 60_000, seed=7)
    bench_events = extract_events(bench_trace, CACHE)
    bench_events.derived  # build per-fill structures outside the timers
    memory = MainMemory(8.0, 4)
    simulator = TimingSimulator(
        CACHE, memory, policy=StallPolicy.BUS_NOT_LOCKED_1
    )

    store_dir = tempfile.mkdtemp(prefix="repro-bench-events-")
    previous_dir = os.environ.get(EVENTS_CACHE_DIR_ENV)
    os.environ[EVENTS_CACHE_DIR_ENV] = store_dir
    registry = metrics.enable_metrics()
    clear_caches()
    try:
        # Marginal derivation cost: distinct (line_size, n_sets) views so
        # the profile's set-view memo cannot serve any of them.
        marginal_configs = [
            CacheConfig(size, 32, 2)
            for size in (1024, 2048, 4096, 16384, 32768)
        ]

        def _derive_marginal() -> float:
            profile = build_profile(bench_trace)
            derive_events(profile, CACHE)  # warm the shared line view
            started = time.perf_counter()
            for config in marginal_configs:
                derive_events(profile, config)
            return (time.perf_counter() - started) / len(marginal_configs)

        benchmarks = {
            "phase1_extract_60k_s": _timed(
                lambda: extract_events(bench_trace, CACHE), rounds=3
            ),
            "phase1_reuse_s": _timed(
                lambda: derive_events(build_profile(bench_trace), CACHE),
                rounds=3,
            ),
            "phase1_derive_marginal_s": _derive_marginal(),
            "phase2_replay_point_s": _timed(
                lambda: replay(
                    bench_events, memory, StallPolicy.BUS_NOT_LOCKED_1
                ),
                rounds=5,
            ),
            "step_simulator_point_s": _timed(
                lambda: simulator.run(bench_trace), rounds=2
            ),
            "figure1_quick_s": _timed(
                lambda: run_experiment("figure1", quick=True), rounds=1
            ),
        }
        snapshot = registry.snapshot()
        metrics.disable_metrics()

        # The full registry sweep in quick mode, with its own registry so
        # the dispatch section reflects exactly this run.
        all_quick_registry = metrics.enable_metrics()
        clear_caches()
        benchmarks["all_quick_s"] = _timed(
            lambda: _run_all(quick=True), rounds=1
        )
        dispatch = _dispatch_counts(all_quick_registry.snapshot())

        if full:
            metrics.disable_metrics()
            clear_caches()
            benchmarks["figure1_full_s"] = _timed(
                lambda: run_experiment("figure1", quick=False), rounds=1
            )
            # Cold: fresh store (and memos); warm: same sweep again,
            # phase 1 now served entirely from disk.
            shutil.rmtree(store_dir, ignore_errors=True)
            clear_caches()
            benchmarks["all_full_cold_s"] = _timed(
                lambda: _run_all(quick=False), rounds=1
            )
            clear_caches()
            benchmarks["all_full_warm_s"] = _timed(
                lambda: _run_all(quick=False), rounds=1
            )

        if metrics.metrics_enabled():
            metrics.disable_metrics()
        phase_breakdown = _collect_phase_breakdown(store_dir)
        profiler_overhead = _measure_profiler_overhead()
    finally:
        if metrics.metrics_enabled():
            metrics.disable_metrics()
        if previous_dir is None:
            os.environ.pop(EVENTS_CACHE_DIR_ENV, None)
        else:
            os.environ[EVENTS_CACHE_DIR_ENV] = previous_dir
        shutil.rmtree(store_dir, ignore_errors=True)
        clear_caches()

    return {
        "schema": BENCH_ENGINE_SCHEMA,
        "benchmarks": {k: round(v, 4) for k, v in benchmarks.items()},
        "speedup_replay_vs_step": round(
            benchmarks["step_simulator_point_s"]
            / benchmarks["phase2_replay_point_s"],
            1,
        ),
        "dispatch": dispatch,
        "phase_breakdown": phase_breakdown,
        "profiler_overhead": profiler_overhead,
        "metrics": snapshot,
        "provenance": bench_provenance(),
    }


#: Sampling rate for the phase-breakdown pass.  It is *not* a timed
#: headline, so a dense rate buys attribution resolution for free.
BREAKDOWN_HZ = 500

#: Sampling rate for the overhead measurement (the documented default).
OVERHEAD_HZ = 97

#: The bench run itself fails if the sampler costs more than this.
OVERHEAD_BUDGET_RATIO = 1.05

#: Off/on pairs of full figure1 runs the overhead measurement times.
#: One warm run takes about 40 ms, and a busy host stretches single
#: runs by far more than the 5% budget, in slow periods that last
#: seconds.  Each pair's two runs are adjacent, so such a period
#: stretches both: over 10 runs of the bench on a 2-CPU host, the
#: median of 60 pair ratios had an interquartile range of 1.3 points.
OVERHEAD_PAIRS = 60


def _collect_phase_breakdown(store_dir: str) -> dict:
    """Profile a *cold* ``--all --quick`` sweep; return its phase table.

    Runs separately from the timed ``all_quick_s`` pass so the sampler
    can never inflate a gated headline; cold (store emptied, memos
    cleared) so phase-1 extraction shows up in the attribution rather
    than being served from disk.
    """
    import shutil

    from repro.experiments._phi import clear_caches
    from repro.obs import profile as profile_mod

    shutil.rmtree(store_dir, ignore_errors=True)
    clear_caches()
    profiler = profile_mod.SamplingProfiler(hz=BREAKDOWN_HZ)
    with profiler:
        _run_all(quick=True)
    document = profiler.document()
    return {
        "source": "all_quick_cold",
        "profile_id": document["id"],
        "hz": document["hz"],
        "duration_s": document["duration_s"],
        "phases": document["phases"],
    }


def _measure_profiler_overhead() -> dict:
    """Full figure1 with the sampler on vs off (warm store): the median
    of :data:`OVERHEAD_PAIRS` per-pair ratios, and each side's median
    run time.

    The ratio is the committed cost of ``--profile=97``;
    :func:`main` fails the bench run when it exceeds the 5% budget.

    Off and on runs alternate (A/B, B/A, ...) and each pair's ratio is
    taken between adjacent runs, so slow machine drift hits both sides
    equally: blocks of runs on one side let a background load spike
    land entirely on that side and fake (or mask) a regression.  Every
    run starts its own sampler, as ``--profile`` does per experiment,
    and clears the in-process memos first so it does real work against
    the warm disk store; otherwise later runs are served from memory in
    microseconds and the pairs time nothing but sampler startup.
    """
    import statistics
    import time

    from repro.experiments._phi import clear_caches
    from repro.obs import profile as profile_mod

    clear_caches()
    run_experiment("figure1", quick=False)  # warm the events store

    def _run(profiled: bool) -> float:
        clear_caches()
        started = time.perf_counter()
        if profiled:
            with profile_mod.SamplingProfiler(hz=OVERHEAD_HZ):
                run_experiment("figure1", quick=False)
        else:
            run_experiment("figure1", quick=False)
        return time.perf_counter() - started

    off_runs, on_runs = [], []
    for pair in range(OVERHEAD_PAIRS):
        for profiled in (pair % 2 == 1, pair % 2 == 0):
            (on_runs if profiled else off_runs).append(_run(profiled))
    ratios = [on / off for on, off in zip(on_runs, off_runs)]
    return {
        "off_s": round(statistics.median(off_runs), 4),
        "on_s": round(statistics.median(on_runs), 4),
        "ratio": round(statistics.median(ratios), 4),
        "hz": OVERHEAD_HZ,
    }


def main(argv=None) -> int:
    import argparse

    from repro.util.jsonout import write_json

    parser = argparse.ArgumentParser(
        description="Benchmark the two-phase engine; write BENCH_engine.json"
    )
    parser.add_argument(
        "--out", default="BENCH_engine.json", help="output path"
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="also time the full (non-quick) Figure 1 and --all sweeps "
        "(cold and warm events store)",
    )
    args = parser.parse_args(argv)
    document = collect(full=args.full)
    path = write_json(args.out, document)
    for name, seconds in document["benchmarks"].items():
        print(f"{name:28s} {seconds:.4f}")
    print(f"replay vs step speedup: {document['speedup_replay_vs_step']}x")
    dispatch = document["dispatch"]
    print(
        f"--all --quick dispatch: replay={dispatch['replay_calls']} "
        f"step={dispatch['step_calls']}"
    )
    phase1 = dispatch["phase1"]
    print(
        f"--all --quick phase 1:  reuse={phase1['reuse_calls']} "
        f"step={phase1['step_calls']}"
    )
    breakdown = document["phase_breakdown"]
    top = sorted(
        breakdown["phases"].items(),
        key=lambda item: item[1]["self_s"],
        reverse=True,
    )[:6]
    print(f"phase breakdown ({breakdown['source']}, {breakdown['hz']} Hz):")
    for name, entry in top:
        print(
            f"  {name:28s} {entry['self_s']:7.3f}s "
            f"({entry['fraction']:6.1%})"
        )
    overhead = document["profiler_overhead"]
    print(
        f"profiler overhead @{overhead['hz']} Hz: {overhead['off_s']:.4f}s -> "
        f"{overhead['on_s']:.4f}s (ratio {overhead['ratio']:.4f})"
    )
    print(f"wrote {path}")
    if overhead["ratio"] > OVERHEAD_BUDGET_RATIO:
        print(
            f"FAIL: profiler overhead ratio {overhead['ratio']:.4f} exceeds "
            f"the {OVERHEAD_BUDGET_RATIO} budget"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
