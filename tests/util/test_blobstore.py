"""Crash injection over every BlobStore user.

Each fault is injected deterministically — ``os.replace`` raising on its
n-th call, or bytes rewritten on disk — never by sleeps or kills.  Every
case must end in a clean miss or the entry that was there before the
fault, never in wrong bytes.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import sys
import threading
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
import pytest

from repro.cache import events_store, reuse_store
from repro.cache.cache import CacheConfig
from repro.cache.events import EVENT_ARRAYS, extract_events
from repro.cache.events_store import EVENTS_CACHE_DIR_ENV
from repro.cache.reuse import PROFILE_ARRAYS, build_profile
from repro.campaign.registry import REGISTRY_VERSION, CampaignRegistry
from repro.obs import metrics
from repro.service.disk_cache import DiskResultCache
from repro.service.result_cache import RESULT_CACHE_VERSION
from repro.trace.spec92 import spec92_trace, trace_fingerprint
from repro.util.blobstore import BlobStore, Memo, atomic_write
from repro.util.jsonout import dump_json
from repro.util.store_gc import ORPHAN_GRACE_S, gc_store

CONFIG = CacheConfig(4096, 32, 2)
FP = trace_fingerprint("swm256", 600, seed=7)
CAMPAIGN_DOC = {
    "name": "blobstore-suite",
    "traces": [{"kind": "spec92", "name": "ear", "instructions": 200}],
    "caches": [{"total_bytes": 4096, "line_size": 32, "associativity": 1}],
    "policies": ["FS"],
    "memory_cycles": [4.0],
}


@dataclass
class User:
    """One BlobStore user, driven through its own public API."""

    store: BlobStore
    key: str
    old: Any
    new: Any
    put: Callable[[Any], None]
    get: Callable[[], Any]
    ident: Callable[[Any], Any]  # comparable form of a value


def _events_user(tmp_path, monkeypatch) -> User:
    monkeypatch.setenv(EVENTS_CACHE_DIR_ENV, str(tmp_path))
    return User(
        store=events_store.store(),
        key=events_store.entry_key(FP, CONFIG),
        old=extract_events(spec92_trace("swm256", 600, seed=7), CONFIG),
        new=extract_events(spec92_trace("swm256", 600, seed=8), CONFIG),
        put=lambda value: events_store.save(FP, CONFIG, value),
        get=lambda: events_store.load(FP, CONFIG),
        ident=lambda value: (
            value.n_instructions,
            value.stats,
            [getattr(value, name).tobytes() for name in EVENT_ARRAYS],
        ),
    )


def _reuse_user(tmp_path, monkeypatch) -> User:
    monkeypatch.setenv(EVENTS_CACHE_DIR_ENV, str(tmp_path))
    return User(
        store=reuse_store.store(),
        key=reuse_store.entry_key(FP),
        old=build_profile(spec92_trace("swm256", 600, seed=7)),
        new=build_profile(spec92_trace("swm256", 600, seed=8)),
        put=lambda value: reuse_store.save(FP, value),
        get=lambda: reuse_store.load(FP),
        ident=lambda value: (
            value.n_instructions,
            [getattr(value, name).tobytes() for name in PROFILE_ARRAYS],
        ),
    )


def _results_user(tmp_path, monkeypatch) -> User:
    cache = DiskResultCache(tmp_path / "results", capacity_bytes=1 << 20)
    return User(
        store=cache.store,
        key="k" * 64,
        old=b'{"cycles": 42}',
        new=b'{"cycles": 4200}',
        put=lambda value: cache.put("k" * 64, value),
        get=lambda: cache.get("k" * 64),
        ident=lambda value: value,
    )


def _campaign_user(tmp_path, monkeypatch) -> User:
    campaign, _created = CampaignRegistry(tmp_path / "reg").submit(CAMPAIGN_DOC)
    return User(
        store=campaign.artifacts,
        key="c" * 64,
        old=b'{"cycles": 42}\n',
        new=b'{"cycles": 4200}\n',
        put=lambda value: campaign.store_artifact("c" * 64, value),
        get=lambda: campaign.load_artifact("c" * 64),
        ident=lambda value: value,
    )


USERS = {
    "events": _events_user,
    "reuse": _reuse_user,
    "results": _results_user,
    "campaign": _campaign_user,
}


@pytest.fixture(params=sorted(USERS))
def user(request, tmp_path, monkeypatch) -> User:
    reuse_store.clear_memory()
    return USERS[request.param](tmp_path, monkeypatch)


@pytest.fixture
def counters():
    registry = metrics.enable_metrics()
    yield lambda: registry.snapshot()["counters"]
    metrics.disable_metrics()


def _fail_replace_on_call(monkeypatch, nth: int) -> None:
    """Make the ``nth`` ``os.replace`` of this test die before renaming."""
    real_replace = os.replace
    calls = [0]

    def replace(src, dst):
        calls[0] += 1
        if calls[0] == nth:
            raise OSError("injected: process died before rename")
        return real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)


def _tmp_files(store: BlobStore) -> list:
    return sorted(store.directory.glob("*.tmp"))


def _corrupt_key(user: User) -> str:
    return f"store.corrupt_recompute{{store={user.store.name}}}"


class TestDeathBeforeRename:
    def test_fresh_entry_is_a_clean_miss(self, user, monkeypatch, counters):
        _fail_replace_on_call(monkeypatch, 1)
        with contextlib.suppress(OSError):
            user.put(user.new)
        assert user.get() is None
        assert _tmp_files(user.store) == []
        assert _corrupt_key(user) not in counters()

    def test_old_entry_survives(self, user, monkeypatch):
        user.put(user.old)
        _fail_replace_on_call(monkeypatch, 1)
        with contextlib.suppress(OSError):
            user.put(user.new)
        assert user.ident(user.get()) == user.ident(user.old)
        assert _tmp_files(user.store) == []


class TestDeathBetweenPayloadAndSidecar:
    def test_fresh_entry_is_a_clean_miss(self, user, monkeypatch, counters):
        _fail_replace_on_call(monkeypatch, 2)
        with contextlib.suppress(OSError):
            user.put(user.new)
        assert user.store.paths(user.key)[0].exists()  # payload landed
        assert user.get() is None
        assert _corrupt_key(user) not in counters()
        entries, orphans = user.store.entries()
        assert entries == [] and len(orphans) == 1

    def test_overwrite_never_serves_new_bytes_under_old_sidecar(
        self, user, monkeypatch
    ):
        user.put(user.old)
        _fail_replace_on_call(monkeypatch, 2)
        with contextlib.suppress(OSError):
            user.put(user.new)
        got = user.get()
        assert got is None or user.ident(got) == user.ident(user.old)


class TestDamagedPayload:
    def test_truncated_payload_is_a_counted_miss(self, user, counters):
        user.put(user.old)
        payload = user.store.paths(user.key)[0]
        payload.write_bytes(payload.read_bytes()[: payload.stat().st_size // 2])
        assert user.get() is None
        assert counters()[_corrupt_key(user)] == 1

    def test_flipped_bit_is_a_counted_miss(self, user, counters):
        user.put(user.old)
        payload = user.store.paths(user.key)[0]
        data = bytearray(payload.read_bytes())
        data[len(data) // 2] ^= 0x10
        payload.write_bytes(bytes(data))
        assert user.get() is None
        assert counters()[_corrupt_key(user)] == 1

    def test_rewrite_recovers(self, user):
        user.put(user.old)
        user.store.paths(user.key)[0].write_bytes(b"x")
        assert user.get() is None
        user.put(user.old)
        assert user.ident(user.get()) == user.ident(user.old)


class TestOrphanedTmp:
    def test_tmp_file_is_ignored_then_collected(self, user):
        user.put(user.old)
        payload = user.store.paths(user.key)[0]
        orphan = payload.with_name(payload.name + "k1ll3d.tmp")
        orphan.write_bytes(b"half a payload")
        assert user.ident(user.get()) == user.ident(user.old)
        entries, orphans = user.store.entries()
        assert [entry.key for entry in entries] == [user.key]
        assert orphans == [orphan]
        report = gc_store(user.store, 1 << 30, now=orphan.stat().st_mtime + 1)
        assert report["orphans_removed"] == 0  # maybe a write in flight
        report = gc_store(
            user.store, 1 << 30, now=orphan.stat().st_mtime + ORPHAN_GRACE_S
        )
        assert report["orphans_removed"] == 1
        assert not orphan.exists()
        assert user.ident(user.get()) == user.ident(user.old)


class TestAtomicWrite:
    def test_writer_failure_keeps_the_old_file(self, tmp_path):
        target = tmp_path / "sub" / "file.bin"
        atomic_write(target, b"old")

        def dies_midway(handle):
            handle.write(b"ne")
            raise OSError("injected: writer died")

        with pytest.raises(OSError):
            atomic_write(target, dies_midway)
        assert target.read_bytes() == b"old"
        assert list(target.parent.iterdir()) == [target]

    def test_sidecar_hash_matches_the_file(self, tmp_path):
        store = BlobStore(tmp_path, "t", ".npz")
        arrays = {"a": np.arange(100_000), "b": np.ones(7)}
        store.put("k", lambda handle: np.savez(handle, **arrays), {"v": 1})
        payload, _sidecar = store.paths("k")

        def parse(handle, sidecar):
            with np.load(handle) as loaded:
                return sidecar, {name: loaded[name] for name in arrays}

        sidecar, loaded = store.load("k", {"v": 1}, parse)
        assert sidecar["sha256"] == hashlib.sha256(payload.read_bytes()).hexdigest()
        assert sidecar["size"] == payload.stat().st_size
        for name, array in arrays.items():
            np.testing.assert_array_equal(loaded[name], array)
        assert store.load("k", {"v": 2}, parse) is None  # version skew


class TestCampaignSidecarCompatibility:
    def test_parent_format_sidecar_loads(self, tmp_path):
        """Registries written before the shared store resume as-is: the
        artifact sidecar bytes are unchanged."""
        campaign, _created = CampaignRegistry(tmp_path).submit(CAMPAIGN_DOC)
        key = "a" * 64
        payload = b'{"cycles": 7}\n'
        campaign.artifacts_dir.mkdir(parents=True, exist_ok=True)
        (campaign.artifacts_dir / f"{key}.bin").write_bytes(payload)
        sidecar = dump_json(
            {
                "registry_version": REGISTRY_VERSION,
                "result_cache_version": RESULT_CACHE_VERSION,
                "key": key,
                "size": len(payload),
                "sha256": hashlib.sha256(payload).hexdigest(),
            }
        )
        (campaign.artifacts_dir / f"{key}.json").write_text(sidecar)
        assert campaign.load_artifact(key) == payload
        # And a fresh write produces exactly those sidecar bytes.
        campaign.store_artifact(key, payload)
        assert (campaign.artifacts_dir / f"{key}.json").read_text() == sidecar


class TestMemoUnderThreads:
    def test_concurrent_lookups_keep_the_bound(self):
        """Four threads (more than the cores) putting and getting under a
        tiny switch interval: no lookup fails and the memo ends within
        its budget, as it would if one thread had made every call."""

        @dataclass
        class Value:
            nbytes: int = 1

        memo = Memo(budget_bytes=4)
        errors: list[BaseException] = []

        def churn(worker: int) -> None:
            try:
                for i in range(400):
                    key = f"{worker}/{i % 16}"
                    if memo.get(key) is None:
                        memo.put(key, Value())
            except BaseException as error:  # noqa: BLE001 - reported below
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=churn, args=(w,)) for w in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(list(memo)) <= 4
