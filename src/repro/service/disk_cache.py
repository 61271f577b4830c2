"""Disk-backed, content-addressed result cache for the serving layer.

The in-process :class:`~repro.service.result_cache.ResultCache` dies
with its process; a fleet restart (deploy, crash, host move) used to
re-pay every replay.  This module persists the same serialized
``result`` payloads to disk — content-addressed by the same SHA-256 key
:func:`~repro.service.result_cache.result_key` derives — so a re-booted
server (or a whole fleet: the directory is shared, keys are
content-addressed, writes are atomic) starts warm.

Entries live in a :class:`~repro.util.blobstore.BlobStore` (the shared
format and corruption handling, see ``docs/ENGINE.md`` "Durable
stores"): ``<key>.bin`` holds the exact result bytes the server would
send, its sidecar the store and result-cache key versions.  A corrupt
entry is a counted miss (``store.corrupt_recompute{store=results}``)
that falls back to recompute; version skew is a plain miss.  On top of
the store this class adds a byte budget: when the directory exceeds it,
the oldest-used entries (sidecar mtime, refreshed on hit) are evicted.

Opt-in / redirection via environment (mirroring the events store):

* the cache is **off by default** — a server enables it with
  ``--disk-cache-dir`` (or programmatically via
  :class:`~repro.service.server.ServerConfig`), keeping the
  byte-identical cold/warm determinism pins meaningful;
* ``REPRO_RESULT_CACHE=0`` (or ``off``) force-disables it;
* ``REPRO_RESULT_CACHE_DIR=<path>`` overrides the configured directory
  (the test suite points it at a temp dir).
"""

from __future__ import annotations

import logging
import os
from pathlib import Path

from repro.obs import tracing
from repro.service.result_cache import RESULT_CACHE_VERSION
from repro.util import storeenv
from repro.util.blobstore import BlobStore, plan_evictions

log = logging.getLogger("repro.result_store")

#: Bump when the on-disk layout (file naming, sidecar format) changes.
STORE_VERSION = 2

#: Set to ``0``/``off``/``false`` to force-disable the disk cache.
RESULT_CACHE_ENV = "REPRO_RESULT_CACHE"

#: Overrides the configured cache directory.
RESULT_CACHE_DIR_ENV = "REPRO_RESULT_CACHE_DIR"

#: Default byte budget when a server enables the cache without one.
DEFAULT_CAPACITY_BYTES = 64 * 1024 * 1024


def cache_enabled() -> bool:
    """Whether the env kill-switch allows the disk cache (checked per
    call, so tests and operators can flip it at runtime)."""
    return storeenv.enabled(RESULT_CACHE_ENV)


def resolve_cache_dir(configured: str | os.PathLike[str] | None) -> Path:
    """The directory to use: env override, else configured, else
    ``$XDG_CACHE_HOME/repro/results``."""
    return storeenv.store_dir(RESULT_CACHE_DIR_ENV, "results", configured)


def store(directory: str | os.PathLike[str]) -> BlobStore:
    """The result store in ``directory``."""
    return BlobStore(directory, "results", ".bin")


def _fields() -> dict[str, object]:
    """Sidecar fields a loaded result must match."""
    return {
        "store_version": STORE_VERSION,
        "result_cache_version": RESULT_CACHE_VERSION,
    }


class DiskResultCache:
    """Byte-budgeted on-disk store of serialized simulate results.

    One instance per server process; multiple processes (the fleet's
    workers) may share a directory — entries are content-addressed and
    written atomically, so concurrent writers at worst double-write the
    same bytes.  Budget enforcement is therefore best-effort per
    process: each writer evicts down to the budget as it sees the
    directory.
    """

    def __init__(
        self,
        directory: str | os.PathLike[str],
        capacity_bytes: int = DEFAULT_CAPACITY_BYTES,
    ) -> None:
        if capacity_bytes <= 0:
            raise ValueError(
                f"capacity_bytes must be > 0, got {capacity_bytes}"
            )
        self.store = store(directory)
        self.directory = self.store.directory
        self.capacity_bytes = capacity_bytes
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key: str) -> bytes | None:
        """The stored payload, or ``None`` on miss/corruption/disabled."""
        if not cache_enabled():
            return None
        with tracing.span("result_store.load", key=key[:12]):
            payload = self.store.get(key, _fields())
        if payload is None:
            self.misses += 1
        else:
            self.hits += 1
        return payload

    def put(self, key: str, payload: bytes) -> None:
        """Persist one result (best-effort: failures only log).

        A payload larger than the whole budget is not stored.  After a
        successful write the directory is trimmed back under the budget,
        oldest-used sidecar first.
        """
        if not cache_enabled() or len(payload) > self.capacity_bytes:
            return
        try:
            with tracing.span("result_store.save", key=key[:12]):
                self.store.put(key, payload, _fields())
        except OSError as exc:
            log.debug("result_store: save failed for %s: %s", key[:12], exc)
            return
        entries, _orphans = self.store.entries()
        for entry in plan_evictions(entries, self.capacity_bytes, keep=key):
            if self.store.evict(entry):
                self.evictions += 1

    def __len__(self) -> int:
        return len(self.store.entries()[0])

    @property
    def size_bytes(self) -> int:
        """Current payload footprint on disk (best-effort)."""
        return sum(entry.size for entry in self.store.entries()[0])

    def stats(self) -> dict[str, object]:
        """JSON-ready view for ``/v1/stats``."""
        entries, _orphans = self.store.entries()
        return {
            "directory": str(self.directory),
            "entries": len(entries),
            "bytes": sum(entry.size for entry in entries),
            "capacity_bytes": self.capacity_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
        }
