"""The disk-backed result cache: persistence, corruption, budget."""

import json

import pytest

from repro.obs import metrics
from repro.service.disk_cache import (
    RESULT_CACHE_DIR_ENV,
    RESULT_CACHE_ENV,
    DiskResultCache,
    cache_enabled,
    resolve_cache_dir,
)


@pytest.fixture
def cache(tmp_path):
    return DiskResultCache(tmp_path / "results", capacity_bytes=1024)


class TestRoundTrip:
    def test_put_get_returns_identical_bytes(self, cache):
        cache.put("k1", b'{"cycles": 42}')
        assert cache.get("k1") == b'{"cycles": 42}'
        assert cache.hits == 1

    def test_miss_on_unknown_key(self, cache):
        assert cache.get("nope") is None
        assert cache.misses == 1

    def test_survives_a_new_instance(self, cache):
        """The warm-boot contract: a fresh process over the same
        directory serves what its predecessor stored."""
        cache.put("k1", b"payload")
        reborn = DiskResultCache(cache.directory, capacity_bytes=1024)
        assert reborn.get("k1") == b"payload"

    def test_stats_shape(self, cache):
        cache.put("k1", b"abc")
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["bytes"] == 3
        assert stats["capacity_bytes"] == 1024


class TestCorruption:
    def test_flipped_bit_is_a_counted_miss(self, cache):
        """One flipped bit keeps the payload's size: only the checksum
        stops the tier from serving the wrong answer."""
        cache.put("k1", b'{"cycles": 42}')
        bin_path = cache.directory / "k1.bin"
        flipped = bytearray(bin_path.read_bytes())
        flipped[-2] ^= 0x01  # "42" -> "43"
        bin_path.write_bytes(bytes(flipped))
        registry = metrics.enable_metrics()
        try:
            assert cache.get("k1") is None
        finally:
            metrics.disable_metrics()
        assert cache.misses == 1
        counters = registry.snapshot()["counters"]
        assert counters.get("store.corrupt_recompute{store=results}") == 1

    def test_garbage_sidecar_is_a_silent_miss(self, cache):
        cache.put("k1", b"payload")
        (cache.directory / "k1.json").write_text("not json at all")
        assert cache.get("k1") is None

    def test_version_skew_is_a_plain_miss(self, cache):
        cache.put("k1", b"payload")
        meta_path = cache.directory / "k1.json"
        meta = json.loads(meta_path.read_text())
        meta["store_version"] = 999
        meta_path.write_text(json.dumps(meta))
        registry = metrics.enable_metrics()
        try:
            assert cache.get("k1") is None
        finally:
            metrics.disable_metrics()
        # Skew is expected across upgrades — no corruption diagnostic.
        counters = registry.snapshot()["counters"]
        assert "store.corrupt_recompute{store=results}" not in counters

    def test_recovery_by_rewrite(self, cache):
        cache.put("k1", b"payload")
        (cache.directory / "k1.bin").write_bytes(b"x")
        assert cache.get("k1") is None
        cache.put("k1", b"payload")
        assert cache.get("k1") == b"payload"


class TestBudget:
    def test_oversized_payload_is_not_stored(self, tmp_path):
        cache = DiskResultCache(tmp_path, capacity_bytes=8)
        cache.put("big", b"x" * 9)
        assert len(cache) == 0

    def test_eviction_prefers_oldest_used(self, tmp_path):
        cache = DiskResultCache(tmp_path, capacity_bytes=100)
        cache.put("a", b"x" * 40)
        cache.put("b", b"x" * 40)
        # Re-use "a" so "b" is the eviction candidate...
        meta_a = tmp_path / "a.json"
        meta_b = tmp_path / "b.json"
        import os

        os.utime(meta_b, (1.0, 1.0))
        os.utime(meta_a, (2.0, 2.0))
        # ...then overflow the budget.
        cache.put("c", b"x" * 40)
        assert cache.get("b") is None
        assert cache.get("a") == b"x" * 40
        assert cache.get("c") == b"x" * 40
        assert cache.evictions >= 1

    def test_zero_capacity_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            DiskResultCache(tmp_path, capacity_bytes=0)


class TestEnvironment:
    def test_kill_switch(self, cache, monkeypatch):
        cache.put("k1", b"payload")
        monkeypatch.setenv(RESULT_CACHE_ENV, "0")
        assert not cache_enabled()
        assert cache.get("k1") is None
        cache.put("k2", b"other")
        monkeypatch.delenv(RESULT_CACHE_ENV)
        assert cache.get("k1") == b"payload"  # nothing was deleted
        assert cache.get("k2") is None  # nothing was written

    def test_dir_override_wins(self, monkeypatch, tmp_path):
        monkeypatch.setenv(RESULT_CACHE_DIR_ENV, str(tmp_path / "override"))
        assert resolve_cache_dir(tmp_path / "configured") == tmp_path / "override"

    def test_configured_dir_without_override(self, monkeypatch, tmp_path):
        monkeypatch.delenv(RESULT_CACHE_DIR_ENV, raising=False)
        assert resolve_cache_dir(tmp_path / "configured") == tmp_path / "configured"
