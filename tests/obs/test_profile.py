"""The sampling profiler (``repro.obs.profile``)."""

import threading
import time

import pytest

from repro.obs import tracing
from repro.obs.profile import (
    DEFAULT_HZ,
    OTHER_PHASE,
    PROFILE_SCHEMA,
    ProfilerActiveError,
    SamplingProfiler,
    _frame_label,
    active_profiler,
    chrome_trace,
    folded_text,
    main,
    new_profile_id,
    phase_self_seconds,
)
from repro.obs.schemas import validate_chrome_trace, validate_profile
from repro.util.jsonout import write_json


def _spin(seconds):
    """Burn CPU so the sampler has frames to catch."""
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        sum(i * i for i in range(1000))


def _profile_once(hz=500, work=None, **kwargs):
    profiler = SamplingProfiler(hz=hz, **kwargs)
    with profiler:
        (work or (lambda: _spin(0.15)))()
    return profiler


class TestLifecycle:
    def test_no_sampler_thread_while_off(self):
        assert active_profiler() is None
        assert not any(
            t.name == "repro-profiler" for t in threading.enumerate()
        )
        assert tracing.phase_stacks() is None
        assert not tracing.spans_active()

    def test_start_stop_releases_the_process(self):
        profiler = SamplingProfiler(hz=100)
        profiler.start()
        try:
            assert active_profiler() is profiler
            assert tracing.phase_stacks() is not None
            assert tracing.spans_active()
        finally:
            profiler.stop()
        assert active_profiler() is None
        assert tracing.phase_stacks() is None
        assert not any(
            t.name == "repro-profiler" for t in threading.enumerate()
        )

    def test_second_profiler_is_rejected(self):
        with SamplingProfiler(hz=100):
            with pytest.raises(ProfilerActiveError, match="already sampling"):
                SamplingProfiler(hz=100).start()

    def test_stop_is_idempotent(self):
        profiler = _profile_once()
        profiler.stop()
        assert active_profiler() is None

    def test_hz_bounds(self):
        with pytest.raises(ValueError, match="hz"):
            SamplingProfiler(hz=0)
        with pytest.raises(ValueError, match="hz"):
            SamplingProfiler(hz=1001)
        assert 1 <= DEFAULT_HZ <= 1000

    def test_profile_ids_are_fresh(self):
        first, second = new_profile_id(), new_profile_id()
        assert first != second
        assert first.startswith("prof-")


class TestDocument:
    def test_document_validates_and_catches_samples(self):
        profiler = _profile_once()
        document = profiler.document()
        validate_profile(document)
        assert document["schema"] == PROFILE_SCHEMA
        assert document["samples"] > 0
        assert document["thread_samples"] > 0
        assert document["duration_s"] > 0
        assert document["heap"] is None

    def test_zero_sample_window_still_validates(self):
        """A window too short to catch one sample (fast --quick runs)
        must still produce a valid document: zeroed (other) row, empty
        folded stacks."""
        profiler = SamplingProfiler(hz=1)
        profiler.start()
        profiler.stop()
        document = profiler.document()
        validate_profile(document)
        assert document["phases"] == {
            "(other)": {"samples": 0, "self_s": 0.0, "fraction": 0.0}
        }
        assert document["folded"] == []

    def test_folded_lines_are_sorted_and_parseable(self):
        document = _profile_once().document()
        assert document["folded"] == sorted(document["folded"])
        for line in document["folded"]:
            frames, _, count = line.rpartition(" ")
            assert int(count) > 0
            assert frames.split(";")[0]  # thread name
        text = folded_text(document)
        assert text.endswith("\n")
        assert text.splitlines() == document["folded"]

    def test_phase_attribution_joins_spans(self):
        def work():
            with tracing.span("test.hot_phase"):
                _spin(0.2)

        document = _profile_once(work=work).document()
        phases = document["phases"]
        assert "test.hot_phase" in phases
        # The worker spends essentially the whole window inside the span.
        assert phases["test.hot_phase"]["samples"] > 0
        table = phase_self_seconds(document)
        assert table["test.hot_phase"] == phases["test.hot_phase"]["self_s"]
        total_fraction = sum(p["fraction"] for p in phases.values())
        assert total_fraction == pytest.approx(1.0, abs=0.01)

    def test_innermost_span_wins(self):
        def work():
            with tracing.span("outer"):
                with tracing.span("inner"):
                    _spin(0.2)

        phases = _profile_once(work=work).document()["phases"]
        assert phases["inner"]["samples"] > 0
        assert phases.get("outer", {"samples": 0})["samples"] <= phases[
            "inner"
        ]["samples"]

    def test_unspanned_samples_fall_into_other(self):
        phases = _profile_once().document()["phases"]
        assert OTHER_PHASE in phases

    def test_heap_snapshot_reports_top_sites(self):
        def work():
            keep = [bytearray(4096) for _ in range(200)]
            _spin(0.1)
            return keep

        document = _profile_once(work=work, heap=True, heap_top=5).document()
        validate_profile(document)
        heap = document["heap"]
        assert heap["peak_kib"] > 0
        assert 1 <= len(heap["top"]) <= 5
        assert all(":" in site["site"] for site in heap["top"])

    def test_frame_labels_are_repo_relative(self):
        assert (
            _frame_label("/home/x/repo/src/repro/cpu/replay.py", "replay")
            == "repro/cpu/replay.py:replay"
        )
        assert (
            _frame_label("/usr/lib/python3.11/threading.py", "run")
            == "threading.py:run"
        )
        assert ";" not in _frame_label("/a/b.py", "has;semi colon")


class TestChromeTrace:
    def test_export_validates_and_conserves_samples(self):
        document = _profile_once().document()
        trace = chrome_trace(document)
        validate_chrome_trace(trace)
        events = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        assert events
        period_us = 1e6 / document["hz"]
        meta = {
            e["tid"]: e["args"]["name"]
            for e in trace["traceEvents"]
            if e["ph"] == "M"
        }
        # Each track tiles its thread's samples contiguously from ts=0, so
        # the track extent equals that thread's sample count.
        for tid, name in meta.items():
            extent = max(
                e["ts"] + e["dur"] for e in events if e["tid"] == tid
            )
            assert extent == pytest.approx(
                document["threads"][name] * period_us
            )
        # And every event's width is a whole number of sampling periods.
        for event in events:
            assert event["dur"] / period_us == pytest.approx(
                event["args"]["samples"]
            )

    def test_every_track_is_a_counted_thread(self):
        """A thread name with a space (Python's default ``Thread-N
        (target)`` has one) names its track and its count alike."""
        release = threading.Event()
        waiter = threading.Thread(
            target=release.wait, name="spin (x)", daemon=True
        )
        waiter.start()
        try:
            document = _profile_once().document()
        finally:
            release.set()
            waiter.join(timeout=5.0)
        assert not waiter.is_alive()
        tracks = {
            e["args"]["name"]
            for e in chrome_trace(document)["traceEvents"]
            if e["ph"] == "M"
        }
        assert "spin_(x)" in tracks
        assert tracks <= set(document["threads"])

    def test_thread_tracks_are_labeled(self):
        trace = chrome_trace(_profile_once().document())
        meta = [e for e in trace["traceEvents"] if e["ph"] == "M"]
        assert any(e["args"]["name"] == "MainThread" for e in meta)


class TestExportCli:
    def test_cli_validates_and_exports(self, tmp_path, capsys):
        document = _profile_once().document()
        profile_path = tmp_path / "run.profile.json"
        write_json(profile_path, document)
        folded_path = tmp_path / "run.folded"
        trace_path = tmp_path / "run.trace.json"
        assert (
            main(
                [
                    str(profile_path),
                    "--folded",
                    str(folded_path),
                    "--trace",
                    str(trace_path),
                ]
            )
            == 0
        )
        assert "ok" in capsys.readouterr().out
        assert folded_path.read_text() == folded_text(document)
        import json

        validate_chrome_trace(json.loads(trace_path.read_text()))

    def test_cli_rejects_invalid_documents(self, tmp_path, capsys):
        bad = tmp_path / "bad.profile.json"
        write_json(bad, {"schema": "wrong"})
        assert main([str(bad)]) == 1
        assert "INVALID" in capsys.readouterr().err


class TestValidateCliProfileFlag:
    """``python -m repro.obs.validate --profile PATH``."""

    def test_accepts_a_real_profiler_document(self, tmp_path, capsys):
        from repro.obs import validate as validate_cli

        path = tmp_path / "run.profile.json"
        write_json(path, _profile_once().document())
        assert validate_cli.main(["--profile", str(path)]) == 0
        assert "ok" in capsys.readouterr().out

    def test_rejects_a_tampered_document(self, tmp_path, capsys):
        from repro.obs import validate as validate_cli

        document = _profile_once().document()
        document["phases"] = {}  # empty phase table is invalid
        path = tmp_path / "tampered.profile.json"
        write_json(path, document)
        assert validate_cli.main(["--profile", str(path)]) == 1
        assert "INVALID" in capsys.readouterr().err

    def test_flag_repeats(self, tmp_path):
        from repro.obs import validate as validate_cli

        first = tmp_path / "a.profile.json"
        second = tmp_path / "b.profile.json"
        write_json(first, _profile_once().document())
        write_json(second, _profile_once().document())
        assert (
            validate_cli.main(
                ["--profile", str(first), "--profile", str(second)]
            )
            == 0
        )


class TestPhaseSpans:
    """The tracing hook the profiler installs (``set_phase_stacks``)."""

    def test_span_is_null_object_when_everything_off(self):
        first = tracing.span("a")
        second = tracing.span("b")
        assert first is second  # the shared no-op instance

    def test_phase_span_needs_no_tracer(self):
        stacks = {}
        tracing.set_phase_stacks(stacks)
        try:
            assert tracing.spans_active()
            assert not tracing.tracing_enabled()
            with tracing.span("only.phase") as span:
                ident = threading.get_ident()
                assert stacks[ident] == ["only.phase"]
                span.set(late="args")  # accepted and dropped
            assert stacks[ident] == []
        finally:
            tracing.set_phase_stacks(None)

    def test_live_span_also_pushes_phase(self):
        stacks = {}
        tracer = tracing.enable_tracing()
        tracing.set_phase_stacks(stacks)
        try:
            with tracing.span("traced.phase"):
                assert stacks[threading.get_ident()] == ["traced.phase"]
            assert stacks[threading.get_ident()] == []
            assert tracer.events[-1]["name"] == "traced.phase"
        finally:
            tracing.set_phase_stacks(None)
            tracing.disable_tracing()
