"""The content-addressed on-disk EventStream cache."""

from __future__ import annotations

import dataclasses
import gc
import json
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.cache import events_store
from repro.cache.cache import CacheConfig
from repro.cache.events import EVENT_ARRAYS, extract_events
from repro.cache.events_store import (
    EVENTS_CACHE_DIR_ENV,
    EVENTS_CACHE_ENV,
    entry_key,
    get_or_extract,
    key_material,
    load,
    save,
)
from repro.cache.write_policy import WritePolicy
from repro.core.stalling import StallPolicy
from repro.cpu.replay import replay
from repro.memory.mainmem import MainMemory
from repro.trace.loops import matmul_fingerprint, square_matmul_trace
from repro.trace.spec92 import spec92_trace, trace_fingerprint

CONFIG = CacheConfig(8192, 32, 2)
FP = trace_fingerprint("swm256", 1200, seed=7)


@pytest.fixture(autouse=True)
def _own_cache_dir(tmp_path, monkeypatch):
    """Every test gets a private, initially empty store."""
    monkeypatch.setenv(EVENTS_CACHE_DIR_ENV, str(tmp_path))
    return tmp_path


def _fresh_events():
    return extract_events(spec92_trace("swm256", 1200, seed=7), CONFIG)


def assert_streams_equal(a, b):
    assert a.n_instructions == b.n_instructions
    assert a.config == b.config
    for name in EVENT_ARRAYS:
        np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
    assert dataclasses.asdict(a.stats) == dataclasses.asdict(b.stats)


class TestRoundTrip:
    def test_save_then_load(self):
        events = _fresh_events()
        save(FP, CONFIG, events)
        loaded = load(FP, CONFIG)
        assert loaded is not None
        assert_streams_equal(events, loaded)

    def test_loaded_stream_replays_identically(self):
        """Warm runs must be bitwise-identical to cold runs."""
        events = _fresh_events()
        save(FP, CONFIG, events)
        loaded = load(FP, CONFIG)
        memory = MainMemory(8.0, 4)
        for policy in (StallPolicy.FULL_STALL, StallPolicy.BUS_NOT_LOCKED_3):
            cold = replay(events, memory, policy)
            warm = replay(loaded, memory, policy)
            assert warm.cycles == cold.cycles
            assert warm.read_miss_stall_cycles == cold.read_miss_stall_cycles
            assert warm.flush_stall_cycles == cold.flush_stall_cycles

    def test_miss_returns_none(self):
        assert load(FP, CONFIG) is None


class TestGetOrExtract:
    def test_factory_called_once(self):
        calls = []

        def factory():
            calls.append(1)
            return spec92_trace("swm256", 1200, seed=7)

        first = get_or_extract(FP, CONFIG, factory)
        second = get_or_extract(FP, CONFIG, factory)
        assert len(calls) == 1  # warm hit skips trace generation entirely
        assert_streams_equal(first, second)

    def test_matmul_fingerprints(self):
        fp = matmul_fingerprint(12, tile=4)
        stream = get_or_extract(fp, CONFIG, lambda: square_matmul_trace(12, tile=4))
        again = get_or_extract(
            fp, CONFIG, lambda: pytest.fail("factory must not run on a hit")
        )
        assert_streams_equal(stream, again)


class TestKeyDerivation:
    def test_material_is_human_readable(self):
        material = key_material(FP, CONFIG)
        assert FP in material
        assert "cache/8192/32/2" in material

    def test_key_varies_with_every_input(self):
        base = entry_key(FP, CONFIG)
        assert entry_key(trace_fingerprint("swm256", 1200, seed=8), CONFIG) != base
        assert entry_key(FP, CacheConfig(8192, 32, 4)) != base
        assert (
            entry_key(
                FP, CacheConfig(8192, 32, 2, write_policy=WritePolicy.WRITE_THROUGH)
            )
            != base
        )

    def test_version_bump_invalidates(self, tmp_path, monkeypatch):
        save(FP, CONFIG, _fresh_events())
        assert load(FP, CONFIG) is not None
        key = entry_key(FP, CONFIG)
        monkeypatch.setattr(events_store, "STORE_VERSION", 999)
        assert load(FP, CONFIG) is None  # sidecar skew => clean miss
        # The address is unchanged, so the next save replaces the old
        # layout's entry in place instead of orphaning it.
        assert entry_key(FP, CONFIG) == key
        save(FP, CONFIG, _fresh_events())
        assert load(FP, CONFIG) is not None
        assert [p.name for p in tmp_path.glob("*.npz")] == [f"{key}.npz"]

    def test_sidecar_version_mismatch_rejected(self, tmp_path):
        """Even a key collision can't resurrect an old-schema payload."""
        save(FP, CONFIG, _fresh_events())
        meta_path = tmp_path / f"{entry_key(FP, CONFIG)}.json"
        meta = json.loads(meta_path.read_text())
        meta["event_schema_version"] = -1
        meta_path.write_text(json.dumps(meta))
        assert load(FP, CONFIG) is None


class TestOptOut:
    def test_env_disables_store(self, tmp_path, monkeypatch):
        monkeypatch.setenv(EVENTS_CACHE_ENV, "0")
        save(FP, CONFIG, _fresh_events())
        assert list(tmp_path.iterdir()) == []
        assert load(FP, CONFIG) is None
        calls = []

        def factory():
            calls.append(1)
            return spec92_trace("swm256", 1200, seed=7)

        get_or_extract(FP, CONFIG, factory)
        get_or_extract(FP, CONFIG, factory)
        assert len(calls) == 2  # no persistence while disabled

    def test_disabled_spellings(self, monkeypatch):
        for value in ("0", "off", "FALSE", " no "):
            monkeypatch.setenv(EVENTS_CACHE_ENV, value)
            assert not events_store.cache_enabled()
        monkeypatch.setenv(EVENTS_CACHE_ENV, "1")
        assert events_store.cache_enabled()


class TestMemo:
    """The in-process memo in front of the store (the reuse store's rule,
    :class:`repro.util.blobstore.Memo`)."""

    def test_repeat_lookup_is_served_from_memory(self, monkeypatch):
        first = get_or_extract(FP, CONFIG, lambda: spec92_trace("swm256", 1200, seed=7))
        monkeypatch.setattr(
            events_store, "load", lambda *_: pytest.fail("expected a memo hit")
        )
        again = get_or_extract(FP, CONFIG, lambda: pytest.fail("no build"))
        assert again is first

    def test_over_budget_stream_dropped_before_next_load_or_build(
        self, monkeypatch
    ):
        """An over-budget stream stays while it is looked up, and is gone
        before the next lookup loads or builds anything."""
        first = get_or_extract(FP, CONFIG, lambda: spec92_trace("swm256", 1200, seed=7))
        monkeypatch.setattr(events_store._memo, "budget_bytes", first.nbytes - 1)
        kept = get_or_extract(FP, CONFIG, lambda: pytest.fail("expected a hit"))
        assert kept is first
        key = entry_key(FP, CONFIG)
        resident = []
        real_load = events_store.load

        def load(trace_fingerprint, config):
            resident.append(key in events_store._memo)
            return real_load(trace_fingerprint, config)

        def trace():
            resident.append(key in events_store._memo)
            return spec92_trace("ear", 300, seed=7)

        monkeypatch.setattr(events_store, "load", load)
        other = trace_fingerprint("ear", 300, seed=7)
        get_or_extract(other, CONFIG, trace)
        assert resident == [False, False]
        assert list(events_store._memo) == [entry_key(other, CONFIG)]


    def test_nbytes_counts_each_view_as_it_is_built(self):
        """The budget covers the plain-list views: building ``derived``,
        its general walk and a k-MSHR walk each grows ``nbytes`` by about
        what ``tracemalloc`` sees the build keep."""
        stream = events_store.trace_events(
            {"kind": "spec92", "name": "swm256", "instructions": 8000, "seed": 7},
            CONFIG,
        )
        builds = (
            lambda: stream.derived,
            lambda: stream.derived.general_walk,
            lambda: stream.derived.mshr_walk(4),
        )
        tracemalloc.start()
        try:
            for build in builds:
                gc.collect()
                before, counted = tracemalloc.get_traced_memory()[0], stream.nbytes
                build()
                gc.collect()
                kept = tracemalloc.get_traced_memory()[0] - before
                assert 0.9 * kept <= stream.nbytes - counted <= 2.0 * kept
        finally:
            tracemalloc.stop()


    def test_dropped_stream_is_freed_without_the_cyclic_collector(self):
        """No view points back at its stream, so once the memo drops a
        stream whose views were built, reference counting frees it."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            stream = get_or_extract(
                FP, CONFIG, lambda: spec92_trace("swm256", 1200, seed=7)
            )
            stream.derived.general_walk
            stream.derived.mshr_walk(2)
            freed = weakref.ref(stream)
            del stream
            assert freed() is not None
            events_store.clear_memory()
            assert freed() is None
        finally:
            if enabled:
                gc.enable()


class TestCorruption:
    def test_garbage_sidecar_falls_back(self, tmp_path):
        save(FP, CONFIG, _fresh_events())
        (tmp_path / f"{entry_key(FP, CONFIG)}.json").write_text("{not json")
        assert load(FP, CONFIG) is None

    def test_no_tmp_files_left_behind(self, tmp_path):
        save(FP, CONFIG, _fresh_events())
        leftovers = [p for p in tmp_path.iterdir() if p.suffix == ".tmp"]
        assert leftovers == []
