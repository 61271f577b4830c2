"""CLI runner behaviour."""

import importlib
import json

import pytest

from repro.cache import events_store, reuse_store
from repro.cache.events_store import EVENTS_CACHE_DIR_ENV, EVENTS_CACHE_ENV
from repro.experiments import _phi, runner
from repro.experiments.runner import main
from repro.obs import schemas, stable_view

# The module, which ``repro.cpu``'s ``replay`` function shadows.
replay_module = importlib.import_module("repro.cpu.replay")


class TestRunner:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "figure1" in out and "table3" in out

    def test_no_args_is_error(self, capsys):
        assert main([]) == 2
        assert "nothing to run" in capsys.readouterr().err

    def test_unknown_id_is_error(self, capsys):
        assert main(["figure99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_runs_and_prints(self, capsys):
        assert main(["table2", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "table2" in out
        assert "finished in" in out

    def test_out_directory(self, tmp_path, capsys):
        assert main(["figure2", "--quick", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "figure2.txt").exists()
        assert (tmp_path / "figure2.csv").exists()
        # Every --out run also writes a validating run manifest.
        manifest = json.loads((tmp_path / "figure2.meta.json").read_text())
        schemas.validate_manifest(manifest)


class TestJobs:
    def test_invalid_jobs_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["figure2", "--quick", "--jobs", "0"])

    def test_parallel_output_matches_sequential(self, tmp_path, capsys):
        """--jobs must not change a single byte of the saved results.

        Manifests are compared on their stable view — wall time and
        provenance timestamps legitimately differ between runs.
        """
        ids = ["figure2", "table2"]
        sequential, parallel = tmp_path / "seq", tmp_path / "par"
        assert main([*ids, "--quick", "--out", str(sequential)]) == 0
        assert main([*ids, "--quick", "--jobs", "2", "--out", str(parallel)]) == 0
        produced = sorted(path.name for path in sequential.iterdir())
        assert produced  # at least the .txt renders
        assert sorted(path.name for path in parallel.iterdir()) == produced
        for name in produced:
            seq_bytes = (sequential / name).read_bytes()
            par_bytes = (parallel / name).read_bytes()
            if name.endswith(".meta.json"):
                seq_manifest = stable_view(json.loads(seq_bytes))
                par_manifest = stable_view(json.loads(par_bytes))
                # jobs is part of the config on purpose; normalize it.
                seq_manifest["config"].pop("jobs")
                par_manifest["config"].pop("jobs")
                assert par_manifest == seq_manifest
            else:
                assert par_bytes == seq_bytes

    def test_single_experiment_jobs(self, capsys, monkeypatch):
        """--jobs with one id runs that experiment in process."""
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise AssertionError("one experiment must not start a pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        assert main(["figure1", "--quick", "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "figure1 finished" in out


class TestObservability:
    def test_trace_file_is_valid_chrome_trace(self, tmp_path, capsys, monkeypatch):
        # A warm on-disk events cache would (correctly) skip phase-1
        # extraction; disable it so every instrumentation point fires.
        monkeypatch.setenv(EVENTS_CACHE_ENV, "0")
        trace_path = tmp_path / "trace.json"
        assert main(["figure1", "--quick", "--trace", str(trace_path)]) == 0
        document = json.loads(trace_path.read_text())
        schemas.validate_chrome_trace(document)
        names = {event["name"] for event in document["traceEvents"]}
        # The advertised instrumentation points all fired.
        assert {"runner.run", "phase1.extract", "phase2.replay"} <= names

    def test_metrics_byte_identical_across_jobs(self, tmp_path, capsys):
        """The merged --metrics aggregate is byte-identical for any N."""
        ids = ["figure1", "figure2", "table2"]
        seq, par = tmp_path / "seq.json", tmp_path / "par.json"
        assert main([*ids, "--quick", "--metrics", str(seq)]) == 0
        assert main(
            [*ids, "--quick", "--jobs", "4", "--metrics", str(par)]
        ) == 0
        assert par.read_bytes() == seq.read_bytes()
        document = json.loads(seq.read_text())
        schemas.validate_metrics(document)
        assert document["counters"]["engine.replay.calls"] > 0

    def test_manifest_deterministic_across_runs(self, tmp_path, capsys):
        """Two runs agree on everything but timestamps/wall time."""
        first, second = tmp_path / "a", tmp_path / "b"
        assert main(["figure1", "--quick", "--out", str(first)]) == 0
        assert main(["figure1", "--quick", "--out", str(second)]) == 0
        load = lambda d: json.loads((d / "figure1.meta.json").read_text())
        assert stable_view(load(first)) == stable_view(load(second))

    def test_manifest_eq2_terms_sum_to_total(self, tmp_path, capsys):
        assert main(["figure1", "--quick", "--out", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "figure1.meta.json").read_text())
        eq2 = manifest["eq2"]
        terms = (
            eq2["execute_cycles"]
            + eq2["read_stall_cycles"]
            + eq2["flush_stall_cycles"]
            + eq2["write_buffer_stall_cycles"]
        )
        assert terms == eq2["total_cycles"]  # exact, not approximate
        assert eq2["total_cycles"] > 0
        assert manifest["engine"]["path"] == "replay"

    def test_run_one_releases_heap_after_clearing_memos(self, monkeypatch):
        calls = []
        monkeypatch.setattr(_phi, "clear_caches", lambda: calls.append("clear"))
        monkeypatch.setattr(runner, "_release_heap", lambda: calls.append("trim"))
        for experiment_id in ("table2", "example1"):
            runner._run_one(experiment_id, quick=True, with_metrics=True)
        assert calls == ["clear", "trim"] * 2

    def test_memos_cleared_before_each_experiment_without_collection(
        self, monkeypatch
    ):
        """No --out, --metrics or --trace: each experiment still starts
        with empty phase-1 memos, so none keeps another's streams."""
        seen = []
        real = runner.run_experiment

        def observed(experiment_id, quick):
            seen.append((list(events_store._memo), list(reuse_store._memo)))
            return real(experiment_id, quick=quick)

        monkeypatch.setattr(runner, "run_experiment", observed)
        for _ in range(2):
            runner._run_one("figure1", quick=True)
        assert seen == [([], [])] * 2

    def test_release_heap_is_safe_to_call(self):
        runner._release_heap()

    def test_quiet_by_default_verbose_opt_in(self, capsys, caplog):
        """-v surfaces runner diagnostics; default stays warnings-only."""
        import logging

        with caplog.at_level(logging.INFO, logger="repro"):
            assert main(["table2", "--quick"]) == 0
            quiet_records = [
                r for r in caplog.records if r.levelno < logging.WARNING
            ]
            caplog.clear()
            assert main(["table2", "--quick", "-v"]) == 0
            verbose_err = capsys.readouterr().err
        assert not quiet_records
        assert "finished" in verbose_err

    def test_report_honours_jobs(self, tmp_path, capsys):
        """--report fans out over --jobs workers (same scorecard)."""
        from repro.experiments.report import build_report

        sequential = build_report(quick=True, jobs=1)
        parallel = build_report(quick=True, jobs=4)
        strip = lambda text: [
            line
            for line in text.splitlines()
            if "s)" not in line  # drop wall-time suffixed lines
        ]
        assert strip(parallel) == strip(sequential)
        assert "claims reproduced" in parallel


class TestReuseProfileFlag:
    def test_default_lru_sweep_never_steps(self, tmp_path, capsys):
        """Zero Cache stepping on an LRU-only sweep: every cold phase-1
        dispatch goes to the reuse engine."""
        import os

        metrics_path = tmp_path / "metrics.json"
        os.environ[EVENTS_CACHE_ENV] = "0"
        try:
            assert (
                main(
                    ["figure1", "--quick", "--metrics", str(metrics_path)]
                )
                == 0
            )
        finally:
            os.environ.pop(EVENTS_CACHE_ENV, None)
        counters = json.loads(metrics_path.read_text())["counters"]
        dispatches = {
            key: value
            for key, value in counters.items()
            if key.startswith("engine.phase1.dispatches")
        }
        assert dispatches
        assert all("engine=reuse" in key for key in dispatches)


class TestSubstrateExperiments:
    """The victim, prefetch, multiprogramming and L2 experiments run on
    phase-1 event streams: no trace is materialized, cold or warm, and
    each manifest names the substrate engine and counts its calls."""

    CALLS = {
        "ablation_latency_hiding": {"prefetch": 6, "victim": 6},
        "extension_multiprogramming": {"multiprogram": 1},
        "extension_multilevel": {"l2": 8},
    }

    def test_cold_and_warm_runs_name_the_substrate_engine(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.trace.spec92 import WorkloadProfile

        monkeypatch.setenv(EVENTS_CACHE_DIR_ENV, str(tmp_path / "store"))
        monkeypatch.setattr(
            WorkloadProfile,
            "trace",
            lambda *args, **kwargs: pytest.fail("materialized a trace"),
        )
        cold, warm = tmp_path / "cold", tmp_path / "warm"
        for out in (cold, warm):
            assert main([*self.CALLS, "--quick", "--out", str(out)]) == 0

        for experiment_id, calls in self.CALLS.items():
            path = f"{experiment_id}.meta.json"
            manifest = json.loads((cold / path).read_text())
            assert manifest["engine"]["path"] == "substrate"
            counters = manifest["metrics"]["counters"]
            assert {
                key: value
                for key, value in counters.items()
                if key.startswith("engine.substrate.calls")
            } == {
                f"engine.substrate.calls{{substrate={name}}}": count
                for name, count in calls.items()
            }
            warm_manifest = json.loads((warm / path).read_text())
            assert stable_view(manifest) == stable_view(warm_manifest)
        for path in cold.iterdir():
            if not path.name.endswith(".meta.json"):
                assert path.read_bytes() == (warm / path.name).read_bytes()


class TestPhiGridPath:
    """The φ sweeps' βm-grid kernel changes no output byte."""

    def test_grid_and_per_point_paths_agree(self, tmp_path, capsys, monkeypatch):
        args = ["figure1", "figure3", "--quick", "--out"]
        kernels = []
        real_sweep = replay_module._sweep

        def counted_sweep(*call_args):
            kernels.append(call_args[3])
            return real_sweep(*call_args)

        monkeypatch.setattr(replay_module, "_sweep", counted_sweep)
        grid, loop = tmp_path / "grid", tmp_path / "loop"
        assert main([*args, str(grid)]) == 0
        assert kernels  # the integer grids took the grid kernel
        monkeypatch.setattr(replay_module, "_integer_grid", lambda betas: False)
        swept = len(kernels)
        assert main([*args, str(loop)]) == 0
        assert len(kernels) == swept  # ... and now the per-point loop

        names = sorted(path.name for path in grid.iterdir())
        assert names == sorted(path.name for path in loop.iterdir())
        for name in names:
            left, right = (grid / name).read_bytes(), (loop / name).read_bytes()
            if name.endswith(".meta.json"):
                assert stable_view(json.loads(left)) == stable_view(
                    json.loads(right)
                ), name
            else:
                assert left == right, name
