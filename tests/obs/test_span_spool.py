"""The on-disk span spool and its offline consumers.

Write discipline mirrors the events store: append-only active file,
atomic rotation into checksummed segments, byte-budget pruning, and a
crash-tolerant read side (an active file without a sidecar still
validates line by line).  Appends must never raise — a broken spool
costs observability, not serving.
"""

import json
import os
from pathlib import Path

import pytest

from repro.obs.cli import assemble_timeline, main as obs_cli_main
from repro.obs.span_spool import (
    SPANS_SCHEMA,
    SpanSpool,
    read_spool,
    spool_files,
    validate_spool,
)
from repro.obs.schemas import SchemaError, validate_chrome_trace
from repro.obs.validate import main as validate_main

TRACE_ID = "c0ffee" + "0" * 26


def span_event(name="service.request", ts=10.0, dur=5.0, **args):
    return {
        "name": name,
        "cat": "service",
        "ph": "X",
        "ts": ts,
        "dur": dur,
        "pid": 1234,
        "tid": 1,
        "args": args,
    }


class TestSpoolWrites:
    def test_append_then_close_leaves_a_valid_spool(self, tmp_path):
        spool = SpanSpool(str(tmp_path))
        for i in range(5):
            spool.append(span_event(ts=float(i)))
        spool.close()
        counts = validate_spool(str(tmp_path))
        assert counts == {"segments": 1, "records": 5}
        records = list(read_spool(str(tmp_path)))
        assert [r["seq"] for r in records] == list(range(5))
        assert all(r["schema"] == SPANS_SCHEMA for r in records)
        assert all("wall_end" in r for r in records)

    def test_rotation_seals_segments_with_checksums(self, tmp_path):
        spool = SpanSpool(str(tmp_path), segment_bytes=256)
        for i in range(20):
            spool.append(span_event(ts=float(i)))
        spool.close()
        segments = [
            name
            for name in os.listdir(tmp_path)
            if name.startswith("segment-") and name.endswith(".jsonl")
        ]
        assert len(segments) > 1
        for name in segments:
            sidecar = tmp_path / (name + ".sha256.json")
            assert sidecar.exists()
            doc = json.loads(sidecar.read_text())
            assert doc["schema"] == "repro.obs.spans.segment/1"
        assert validate_spool(str(tmp_path))["records"] == 20

    def test_budget_prunes_oldest_segments(self, tmp_path):
        spool = SpanSpool(str(tmp_path), budget_bytes=600, segment_bytes=200)
        for i in range(60):
            spool.append(span_event(ts=float(i)))
        spool.close()
        counts = validate_spool(str(tmp_path))
        assert counts["records"] < 60  # the oldest segments are gone
        records = list(read_spool(str(tmp_path)))
        # What survives is the newest suffix, in order.
        seqs = [r["seq"] for r in records]
        assert seqs == sorted(seqs)
        assert seqs[-1] == 59

    def test_active_file_without_sidecar_still_validates(self, tmp_path):
        spool = SpanSpool(str(tmp_path))
        spool.append(span_event())
        # No close(): the process "died" with an unsealed active file.
        counts = validate_spool(str(tmp_path))
        assert counts == {"segments": 0, "records": 1}

    def test_fresh_spool_seals_a_predecessors_leftover(self, tmp_path):
        first = SpanSpool(str(tmp_path))
        first.append(span_event(ts=1.0))
        # Simulate SIGKILL: never closed.  A successor over the same
        # directory must seal the orphan before spooling its own spans.
        second = SpanSpool(str(tmp_path))
        second.append(span_event(ts=2.0))
        second.close()
        counts = validate_spool(str(tmp_path))
        assert counts["segments"] == 2
        assert counts["records"] == 2

    def test_leftover_already_sealed_is_not_sealed_twice(
        self, tmp_path, monkeypatch
    ):
        first = SpanSpool(str(tmp_path))
        for i in range(3):
            first.append(span_event(ts=float(i)))
        real_unlink = Path.unlink
        killed = []

        def unlink(path, *args, **kwargs):
            if path.name == "active.jsonl" and not killed:
                killed.append(path)
                raise OSError("killed between sealing and unlinking")
            return real_unlink(path, *args, **kwargs)

        monkeypatch.setattr(Path, "unlink", unlink)
        # The segment is written, but the active file holding the same
        # lines survives: the predecessor died mid-rotation.
        with pytest.raises(OSError):
            first.rotate()
        second = SpanSpool(str(tmp_path))
        second.close()
        seqs = [record["seq"] for record in read_spool(str(tmp_path))]
        assert seqs == [0, 1, 2]  # each line read exactly once
        assert validate_spool(str(tmp_path)) == {"segments": 1, "records": 3}

    def test_unserializable_span_is_dropped_not_raised(self, tmp_path):
        spool = SpanSpool(str(tmp_path))
        spool.append(span_event(bad=object()))  # not JSON-serializable
        spool.append(span_event())
        spool.close()
        assert spool.dropped == 1
        assert validate_spool(str(tmp_path))["records"] == 1

    def test_corrupt_segment_fails_validation(self, tmp_path):
        spool = SpanSpool(str(tmp_path), segment_bytes=64)
        for i in range(4):
            spool.append(span_event(ts=float(i)))
        spool.close()
        segment = sorted(
            p for p in tmp_path.iterdir() if p.name.startswith("segment-")
            and p.suffix == ".jsonl"
        )[0]
        segment.write_text(segment.read_text().replace("service", "corrupt"))
        try:
            validate_spool(str(tmp_path))
        except SchemaError as error:
            assert "checksum" in str(error)
        else:
            raise AssertionError("tampered segment validated")

    def test_validate_cli_accepts_and_rejects(self, tmp_path, capsys):
        spool_dir = tmp_path / "spans"
        spool_dir.mkdir()
        spool = SpanSpool(str(spool_dir))
        spool.append(span_event(trace_id=TRACE_ID, span_id="b" * 16))
        spool.close()
        assert validate_main(["--spans", str(spool_dir)]) == 0
        assert "1 spans" in capsys.readouterr().out
        (spool_dir / "active.jsonl").write_text('{"schema": "nope"}\n')
        assert validate_main(["--spans", str(spool_dir)]) == 1


class TestOfflineTimeline:
    def _fleet_spools(self, root):
        for name, base_wall in (("router", 100.0), ("w0", 100.002)):
            spool = SpanSpool(str(root / name))
            event = span_event(
                name="service.forward" if name == "router" else "service.request",
                ts=0.0,
                dur=2000.0,
                trace_id=TRACE_ID,
            )
            spool.append(event)
            # Pin wall_end deterministically after append stamped it.
            spool.close()
        return root

    def test_merges_spools_into_process_tracks(self, tmp_path):
        self._fleet_spools(tmp_path)
        document = assemble_timeline(str(tmp_path))
        validate_chrome_trace(document)
        names = {
            event["args"]["name"]: event["pid"]
            for event in document["traceEvents"]
            if event["ph"] == "M" and event["name"] == "process_name"
        }
        assert names["router"] == 0  # the router track leads
        assert names["w0"] == 1
        spans = [e for e in document["traceEvents"] if e["ph"] == "X"]
        assert len(spans) == 2
        assert all(e["ts"] >= 0.0 for e in spans)
        assert min(e["ts"] for e in spans) == 0.0
        assert {e["pid"] for e in spans} == {0, 1}
        assert document["sources"] == {"router": 1, "w0": 1}

    def test_single_spool_directory_is_one_track(self, tmp_path):
        spool = SpanSpool(str(tmp_path))
        spool.append(span_event())
        spool.close()
        document = assemble_timeline(str(tmp_path))
        assert sum(document["sources"].values()) == 1

    def test_campaign_filter_keeps_the_cross_process_tree(self, tmp_path):
        from repro.campaign import spec as spec_mod

        campaign_dir = tmp_path / "campaign"
        campaign_dir.mkdir()
        spec = {"traces": [], "caches": [], "policies": []}
        tag = spec_mod.campaign_id(spec)[:12]
        (campaign_dir / "spec.json").write_text(json.dumps(spec))

        spool_root = tmp_path / "spans"
        router = SpanSpool(str(spool_root / "router"))
        router.append(
            span_event(name="campaign.point", campaign=tag, trace_id=TRACE_ID)
        )
        router.append(span_event(name="unrelated", trace_id="f" * 32))
        router.close()
        worker = SpanSpool(str(spool_root / "w0"))
        # Same tree as the campaign point (shared trace id), no tag —
        # the forwarded point's worker-side span must ride along.
        worker.append(span_event(trace_id=TRACE_ID))
        worker.append(span_event(name="other", trace_id="e" * 32))
        worker.close()

        document = assemble_timeline(str(spool_root), str(campaign_dir))
        spans = [e for e in document["traceEvents"] if e["ph"] == "X"]
        names = sorted(e["name"] for e in spans)
        assert names == ["campaign.point", "service.request"]
        assert document["otherData"]["campaign"] == tag

    def test_cli_writes_the_document(self, tmp_path, capsys):
        self._fleet_spools(tmp_path / "spans")
        out = tmp_path / "timeline.json"
        status = obs_cli_main(
            ["timeline", "--spool", str(tmp_path / "spans"), "--out", str(out)]
        )
        assert status == 0
        assert "2 spans across 2 process tracks" in capsys.readouterr().out
        validate_chrome_trace(json.loads(out.read_text()))

    def test_cli_fails_cleanly_on_an_empty_root(self, tmp_path):
        assert obs_cli_main(["timeline", "--spool", str(tmp_path)]) == 1

    def test_spool_files_orders_segments_before_active(self, tmp_path):
        spool = SpanSpool(str(tmp_path), segment_bytes=64)
        for i in range(4):
            spool.append(span_event(ts=float(i)))
        files = [os.path.basename(str(f)) for f in spool_files(str(tmp_path))]
        assert files[-1] == "active.jsonl"
        assert all(f.startswith("segment-") for f in files[:-1])
