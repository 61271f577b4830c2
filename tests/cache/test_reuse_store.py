"""The content-addressed on-disk ReuseProfile store."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cache import events_store, reuse_store
from repro.cache.cache import CacheConfig
from repro.cache.events import EVENT_ARRAYS
from repro.cache.events_store import EVENTS_CACHE_DIR_ENV, EVENTS_CACHE_ENV
from repro.cache.reuse import PROFILE_ARRAYS, build_profile, derive_events
from repro.cache.reuse_store import (
    entry_key,
    get_or_build,
    key_material,
    load,
    save,
)
from repro.obs import metrics
from repro.trace.spec92 import spec92_trace, trace_fingerprint

FP = trace_fingerprint("swm256", 1200, seed=7)


@pytest.fixture(autouse=True)
def _own_cache_dir(tmp_path, monkeypatch):
    """Every test gets a private, initially empty store and a cold memo."""
    monkeypatch.setenv(EVENTS_CACHE_DIR_ENV, str(tmp_path))
    reuse_store.clear_memory()
    yield tmp_path
    reuse_store.clear_memory()


def _trace():
    return spec92_trace("swm256", 1200, seed=7)


def _fresh_profile():
    return build_profile(_trace())


def assert_profiles_equal(a, b):
    assert a.n_instructions == b.n_instructions
    for name in PROFILE_ARRAYS:
        left, right = getattr(a, name), getattr(b, name)
        assert left.dtype == right.dtype, name
        np.testing.assert_array_equal(left, right, err_msg=name)


class TestRoundTrip:
    def test_save_then_load(self):
        profile = _fresh_profile()
        save(FP, profile)
        loaded = load(FP)
        assert loaded is not None
        assert_profiles_equal(profile, loaded)

    def test_loaded_profile_derives_identically(self):
        """A persisted profile must yield the same event streams."""
        profile = _fresh_profile()
        save(FP, profile)
        loaded = load(FP)
        for config in (CacheConfig(8192, 32, 2), CacheConfig(512, 64, 4)):
            cold = derive_events(profile, config)
            warm = derive_events(loaded, config)
            for name in EVENT_ARRAYS:
                np.testing.assert_array_equal(
                    getattr(cold, name), getattr(warm, name)
                )
            assert warm.stats == cold.stats

    def test_miss_returns_none(self):
        assert load(FP) is None


class TestGetOrBuild:
    def test_trace_factory_called_once(self):
        calls = []

        def factory():
            calls.append(1)
            return _trace()

        first = get_or_build(FP, factory)
        second = get_or_build(FP, factory)  # memo hit
        assert len(calls) == 1
        assert_profiles_equal(first, second)

    def test_disk_hit_survives_memo_clear(self):
        get_or_build(FP, _trace)
        reuse_store.clear_memory()
        again = get_or_build(
            FP, lambda: pytest.fail("factory must not run on a disk hit")
        )
        assert_profiles_equal(_fresh_profile(), again)

    def test_profile_factory_replaces_build_on_cold_path(self):
        built = get_or_build(
            FP,
            lambda: pytest.fail("trace_factory must not run"),
            profile_factory=_fresh_profile,
        )
        assert_profiles_equal(_fresh_profile(), built)

    def test_profile_factory_ignored_on_hits(self):
        get_or_build(FP, _trace)
        get_or_build(
            FP,
            _trace,
            profile_factory=lambda: pytest.fail(
                "profile_factory must not run on a hit"
            ),
        )

    def test_memo_bound(self, monkeypatch):
        """The memo holds at most ``_MEMO_BYTES``, oldest dropped first."""
        tiny = lambda: _trace()[:64]  # noqa: E731
        size = get_or_build(f"{FP}/bound/probe", tiny).nbytes
        assert size > 0
        monkeypatch.setattr(reuse_store._memo, "budget_bytes", 3 * size)
        keys = [f"{FP}/bound/{i}" for i in range(5)]
        for key in keys:
            get_or_build(key, tiny)
        assert list(reuse_store._memo) == keys[-3:]

    def test_over_budget_profile_not_retained(self, monkeypatch):
        """An over-budget profile stays only until another trace is
        looked up."""
        profile = _fresh_profile()
        monkeypatch.setattr(reuse_store._memo, "budget_bytes", profile.nbytes - 1)
        built = get_or_build(FP, _trace, profile_factory=lambda: profile)
        assert built is profile
        hit = get_or_build(FP, lambda: pytest.fail("expected a memo hit"))
        assert hit is profile
        small = f"{FP}/small"
        get_or_build(small, lambda: [_trace()[0]])
        assert list(reuse_store._memo) == [small]
        again = get_or_build(FP, lambda: pytest.fail("expected a disk hit"))
        assert again is not profile
        assert_profiles_equal(profile, again)

    def test_profile_grown_over_budget_dropped_at_next_use(self, monkeypatch):
        """Views built after a profile joined the memo count too."""
        profile = get_or_build(FP, _trace)
        monkeypatch.setattr(reuse_store._memo, "budget_bytes", profile.nbytes + 1)
        derive_events(profile, CacheConfig(8192, 32, 2))  # builds its views
        small = f"{FP}/small"
        get_or_build(small, lambda: [_trace()[0]])
        assert list(reuse_store._memo) == [small]

    def test_geometry_fan_builds_profile_once(self):
        calls = []

        def factory():
            calls.append(1)
            return _fresh_profile()

        for config in (
            CacheConfig(8192, 32, 2),
            CacheConfig(1024, 16, 1),
            CacheConfig(512, 64, 4),
            CacheConfig(4096, 32, 4),
        ):
            events_store.get_or_extract(
                FP, config, _trace, profile_factory=factory
            )
        assert len(calls) == 1
        assert FP in reuse_store._memo

    def test_geometry_fan_over_large_profile_loads_it_once(self, monkeypatch):
        """The profile being looked up stays whatever its size."""
        save(FP, _fresh_profile())
        monkeypatch.setattr(reuse_store._memo, "budget_bytes", 1)
        loads = []
        real_load = reuse_store.load

        def counted_load(trace_fingerprint):
            loads.append(trace_fingerprint)
            return real_load(trace_fingerprint)

        monkeypatch.setattr(reuse_store, "load", counted_load)
        for config in (
            CacheConfig(8192, 32, 2),
            CacheConfig(1024, 16, 1),
            CacheConfig(512, 64, 4),
            CacheConfig(4096, 32, 4),
        ):
            events_store.get_or_extract(
                FP, config, lambda: pytest.fail("expected a profile hit")
            )
        assert loads == [FP]


class TestKeyDerivation:
    def test_material_is_human_readable(self):
        material = key_material(FP)
        assert FP in material
        assert material.startswith("reuse/")

    def test_key_varies_with_trace(self):
        other = trace_fingerprint("swm256", 1200, seed=8)
        assert entry_key(FP) != entry_key(other)

    def test_version_bump_invalidates(self, monkeypatch):
        save(FP, _fresh_profile())
        assert load(FP) is not None
        monkeypatch.setattr(reuse_store, "PROFILE_STORE_VERSION", 999)
        assert load(FP) is None  # sidecar skew => clean miss

    def test_sidecar_version_mismatch_rejected(self, tmp_path):
        save(FP, _fresh_profile())
        meta_path = tmp_path / "reuse" / f"{entry_key(FP)}.json"
        meta = json.loads(meta_path.read_text())
        meta["profile_schema_version"] = -1
        meta_path.write_text(json.dumps(meta))
        assert load(FP) is None

    def test_shares_directory_with_events_store(self, tmp_path):
        """One cache dir: wiping the events store cold-starts profiles.
        Profiles sit in its ``reuse/`` subdirectory, so the two stores
        never share a file listing."""
        save(FP, _fresh_profile())
        assert events_store.cache_dir() == tmp_path
        assert list((tmp_path / "reuse").glob("*.npz"))
        assert not list(tmp_path.glob("*.npz"))


class TestOptOut:
    def test_events_cache_env_disables_persistence_and_memo(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(EVENTS_CACHE_ENV, "0")
        save(FP, _fresh_profile())
        assert list(tmp_path.iterdir()) == []
        assert load(FP) is None
        calls = []

        def factory():
            calls.append(1)
            return _trace()

        get_or_build(FP, factory)
        get_or_build(FP, factory)
        assert len(calls) == 2  # REPRO_EVENTS_CACHE=0 promises recomputation


class TestCorruption:
    def test_garbage_sidecar_falls_back(self, tmp_path):
        save(FP, _fresh_profile())
        (tmp_path / "reuse" / f"{entry_key(FP)}.json").write_text("{not json")
        assert load(FP) is None

    def test_clean_miss_not_counted_as_corruption(self):
        registry = metrics.enable_metrics()
        try:
            assert load(FP) is None
        finally:
            metrics.disable_metrics()
        counters = registry.snapshot()["counters"]
        assert "store.corrupt_recompute{store=reuse}" not in counters

    def test_no_tmp_files_left_behind(self, tmp_path):
        save(FP, _fresh_profile())
        leftovers = [
            p for p in (tmp_path / "reuse").iterdir() if p.suffix == ".tmp"
        ]
        assert leftovers == []


class TestEngineDispatch:
    """events_store._extract routes through the reuse engine and says so."""

    def _get(self, config):
        return events_store.get_or_extract(FP, config, _trace)

    def test_lru_wb_wa_dispatches_reuse(self):
        registry = metrics.enable_metrics()
        try:
            self._get(CacheConfig(8192, 32, 2))
        finally:
            metrics.disable_metrics()
        counters = registry.snapshot()["counters"]
        assert (
            counters["engine.phase1.dispatches{engine=reuse,reason=lru_wb_wa}"]
            == 1
        )

    def test_unsupported_geometry_dispatches_step(self):
        from repro.cache.write_policy import WritePolicy

        config = CacheConfig(
            8192, 32, 2, write_policy=WritePolicy.WRITE_THROUGH
        )
        registry = metrics.enable_metrics()
        try:
            self._get(config)
        finally:
            metrics.disable_metrics()
        counters = registry.snapshot()["counters"]
        key = (
            "engine.phase1.dispatches"
            "{engine=step,reason=write_policy=write-through}"
        )
        assert counters[key] == 1
