"""Store eviction: entry scans, planning, the ``cache gc`` CLI."""

import os
import time

import pytest

from repro.util import store_gc
from repro.util.blobstore import BlobStore, Entry, plan_evictions
from repro.util.store_gc import ORPHAN_GRACE_S, gc_store


def _pair(directory, key, size, age_s, payload_suffix=".bin"):
    payload = directory / f"{key}{payload_suffix}"
    sidecar = directory / f"{key}.json"
    payload.write_bytes(b"x" * size)
    sidecar.write_text("{}")
    stamp = time.time() - age_s
    os.utime(sidecar, (stamp, stamp))
    os.utime(payload, (stamp, stamp))
    return payload, sidecar


class TestScan:
    def test_pairs_and_orphans(self, tmp_path):
        _pair(tmp_path, "aa", 10, 100)
        _pair(tmp_path, "bb", 20, 50)
        (tmp_path / "cc.bin").write_bytes(b"orphan")  # no sidecar
        (tmp_path / "dd.binx1y2.tmp").write_bytes(b"killed mid-write")
        entries, orphans = BlobStore(tmp_path, "results", ".bin").entries()
        assert sorted(e.key for e in entries) == ["aa", "bb"]
        assert {e.key: e.size for e in entries} == {"aa": 10, "bb": 20}
        assert sorted(p.name for p in orphans) == ["cc.bin", "dd.binx1y2.tmp"]

    def test_reuse_subdirectory_is_not_an_events_entry(self, tmp_path):
        # Reuse profiles live in <events dir>/reuse/, out of the scan.
        _pair(tmp_path, "ev", 10, 10, payload_suffix=".npz")
        (tmp_path / "reuse").mkdir()
        _pair(tmp_path / "reuse", "pr", 10, 10, payload_suffix=".npz")
        entries, orphans = BlobStore(tmp_path, "events", ".npz").entries()
        assert [e.key for e in entries] == ["ev"]
        assert orphans == []

    def test_missing_directory_is_empty(self, tmp_path):
        store = BlobStore(tmp_path / "nope", "results", ".bin")
        entries, orphans = store.entries()
        assert entries == [] and orphans == []


class TestPlan:
    def _entries(self, sizes_and_mtimes):
        return [
            Entry(
                key=f"k{i}",
                payload=None,
                sidecar=None,
                size=size,
                mtime=mtime,
            )
            for i, (size, mtime) in enumerate(sizes_and_mtimes)
        ]

    def test_under_budget_evicts_nothing(self):
        assert plan_evictions(self._entries([(50, 1.0), (50, 2.0)]), 100) == []

    def test_oldest_sidecar_first(self):
        entries = self._entries([(40, 3.0), (40, 1.0), (40, 2.0)])
        plan = plan_evictions(entries, 80)
        assert [e.key for e in plan] == ["k1"]
        plan = plan_evictions(entries, 40)
        assert [e.key for e in plan] == ["k1", "k2"]

    def test_keep_is_never_planned(self):
        entries = self._entries([(60, 1.0), (60, 2.0)])
        plan = plan_evictions(entries, 60, keep="k0")
        assert [e.key for e in plan] == ["k1"]


class TestGcStore:
    def _spec(self, directory):
        return BlobStore(directory, "results", ".bin")

    def test_dry_run_reports_without_unlinking(self, tmp_path):
        _pair(tmp_path, "old", 100, 1000)
        _pair(tmp_path, "new", 100, 1)
        report = gc_store(self._spec(tmp_path), 100, dry_run=True)
        assert report["evicted"] == 1
        assert report["evicted_bytes"] == 100
        assert report["bytes_after"] == 100
        assert (tmp_path / "old.bin").exists()

    def test_evicts_pairs_oldest_first(self, tmp_path):
        _pair(tmp_path, "old", 100, 1000)
        _pair(tmp_path, "new", 100, 1)
        report = gc_store(self._spec(tmp_path), 100)
        assert report["evicted"] == 1
        assert not (tmp_path / "old.bin").exists()
        assert not (tmp_path / "old.json").exists()
        assert (tmp_path / "new.bin").exists()

    def test_orphans_respect_the_grace_window(self, tmp_path):
        now = time.time()
        stale = tmp_path / "stale.bin"
        stale.write_bytes(b"x")
        os.utime(stale, (now - ORPHAN_GRACE_S - 5, now - ORPHAN_GRACE_S - 5))
        fresh = tmp_path / "fresh.bin"
        fresh.write_bytes(b"x")  # an atomic write in flight, maybe
        report = gc_store(self._spec(tmp_path), 10**9, now=now)
        assert report["orphans_removed"] == 1
        assert not stale.exists()
        assert fresh.exists()


class TestCli:
    def test_gc_all_stores_reports_each(self, capsys):
        # The session fixtures point every store at temp dirs.
        assert store_gc.main(["gc", "--budget-mib", "64", "--dry-run"]) == 0
        out = capsys.readouterr().out
        for store in ("events", "reuse", "results"):
            assert f"{store}: " in out

    def test_gc_single_store_evicts_to_budget(self, tmp_path, monkeypatch):
        from repro.service.disk_cache import RESULT_CACHE_DIR_ENV

        monkeypatch.setenv(RESULT_CACHE_DIR_ENV, str(tmp_path))
        _pair(tmp_path, "a" * 64, 2 * 1024 * 1024, 100)
        _pair(tmp_path, "b" * 64, 2 * 1024 * 1024, 1)
        assert (
            store_gc.main(["gc", "--budget-mib", "2", "--store", "results"])
            == 0
        )
        assert not (tmp_path / ("a" * 64 + ".bin")).exists()
        assert (tmp_path / ("b" * 64 + ".bin")).exists()

    def test_budget_must_be_positive(self):
        with pytest.raises(SystemExit):
            store_gc.main(["gc", "--budget-mib", "0"])

    def test_shares_the_planner_with_the_disk_cache(self):
        from repro.service import disk_cache

        # The online and offline paths must agree on "oldest first"
        # and on where files live: both route through the same
        # plan_evictions over the same BlobStore layout.
        assert disk_cache.plan_evictions is store_gc.plan_evictions
        stores = store_gc.known_stores()
        assert stores["results"].directory == disk_cache.resolve_cache_dir(None)
        assert stores["reuse"].directory.parent == stores["events"].directory
