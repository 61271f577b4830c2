"""Durable, content-addressed blob stores: the one write discipline.

Every content-addressed store in the package — the phase-1 events and
reuse stores, the service's disk result tier, campaign artifacts — is a
directory of ``<key><suffix>`` payloads, each beside a ``<key>.json``
sidecar written by :func:`repro.util.jsonout.dump_json`::

    {"key": ..., "sha256": ..., "size": ..., <the caller's fields>}

This module is the only code in the package that creates temp files or
renames over a path:

* :func:`atomic_write` — temp file beside the target, full write,
  ``os.replace``; the temp file is unlinked on any exception, so a
  failed write leaves the previous file (or nothing) in place;
* :meth:`BlobStore.put` writes the payload, then its sidecar, hashing
  the written temp file before it is renamed into place;
* :meth:`BlobStore.load` trusts a payload only when the sidecar's
  fields equal the caller's, its size and sha256 match, and the
  caller's parser accepts it.  Both sides hash by streaming the file
  through one small buffer, never as a second in-memory copy.  A missing file or a field mismatch
  (version skew) is a plain miss.  Anything else is corruption: a
  warning, the diagnostic-only ``store.corrupt_recompute{store=<name>}``
  counter, and a miss, so the caller recomputes;
* :meth:`BlobStore.entries`, :func:`plan_evictions` and
  :meth:`BlobStore.evict` bound a store by bytes, oldest sidecar mtime
  first (every hit refreshes it).

The module knows nothing about the environment: each store resolves its
own directory and switches (:mod:`repro.util.storeenv`).
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
from collections.abc import Callable, Mapping
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Any, TypeVar

from repro.obs import metrics
from repro.util.jsonout import dump_json

log = logging.getLogger("repro.blobstore")

#: Bumped (with a ``store=<name>`` label) when a present entry fails to
#: load; diagnostic-only, so ``stable_view`` strips it.
CORRUPT_COUNTER = "store.corrupt_recompute"

#: Hashing buffer size (one buffer per file, reused for every read).
_CHUNK = 1 << 16

T = TypeVar("T")

#: Streams a payload into the open binary file it is given.
Writer = Callable[[IO[bytes]], None]


def atomic_write(path: Path, data: bytes | Writer) -> None:
    """Replace ``path`` with ``data`` (bytes, or a writer fed the open
    file) all or nothing, creating the parent directory if needed."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w+b") as handle:
            if callable(data):
                data(handle)
            else:
                handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def checksum_doc(data: bytes) -> dict[str, Any]:
    """The integrity half of a sidecar: ``{"sha256", "size"}``."""
    return {"sha256": hashlib.sha256(data).hexdigest(), "size": len(data)}


def report_corrupt(store: str, key: str, exc: BaseException) -> None:
    """Count and log one present-but-unloadable entry.

    The data is recomputed transparently, but repeated corruption means
    a sick disk or a concurrent writer bug, so it is worth a signal.
    """
    metrics.inc(CORRUPT_COUNTER, store=store)
    log.warning(
        "%s store: corrupt entry %s (%s: %s); recomputing",
        store,
        key[:12],
        type(exc).__name__,
        exc,
    )


def _digest(handle: IO[bytes]) -> dict[str, Any]:
    """:func:`checksum_doc` of an open file, streamed from its start;
    leaves the handle rewound."""
    handle.seek(0)
    digest = hashlib.sha256()
    buffer = bytearray(_CHUNK)
    view = memoryview(buffer)
    size = 0
    while count := handle.readinto(buffer):
        digest.update(view[:count])
        size += count
    handle.seek(0)
    return {"sha256": digest.hexdigest(), "size": size}


@dataclass(frozen=True)
class Entry:
    """One complete (payload, sidecar) pair of a store."""

    key: str
    payload: Path
    sidecar: Path
    size: int  # payload bytes (what a byte budget counts)
    mtime: float  # sidecar mtime (the recency signal)


def plan_evictions(
    entries: list[Entry], capacity_bytes: int, keep: str | None = None
) -> list[Entry]:
    """The entries to evict, oldest sidecar first, to fit the budget.

    ``keep`` names a key that is never planned for eviction (the entry
    a writer just stored).  Ties on mtime break by size then key, so
    the plan is deterministic for a given directory state.
    """
    total = sum(entry.size for entry in entries)
    plan: list[Entry] = []
    for entry in sorted(entries, key=lambda e: (e.mtime, e.size, e.key)):
        if total <= capacity_bytes:
            break
        if entry.key == keep:
            continue
        plan.append(entry)
        total -= entry.size
    return plan


class BlobStore:
    """One directory of ``<key><suffix>`` payloads and their sidecars.

    ``name`` labels the corruption counter and the ``cache gc`` report.
    Entries are content-addressed and written atomically, so concurrent
    writers (fleet workers sharing a directory) at worst write the same
    bytes twice.
    """

    def __init__(
        self, directory: str | os.PathLike[str], name: str, suffix: str
    ) -> None:
        self.directory = Path(directory)
        self.name = name
        self.suffix = suffix

    def paths(self, key: str) -> tuple[Path, Path]:
        """``(payload, sidecar)`` paths of one key."""
        return (
            self.directory / f"{key}{self.suffix}",
            self.directory / f"{key}.json",
        )

    def put(
        self, key: str, payload: bytes | Writer, fields: Mapping[str, Any]
    ) -> None:
        """Store one entry, payload first (raises ``OSError``).

        ``fields`` (versions, plus any metadata the caller wants back)
        join ``key``/``size``/``sha256`` in the sidecar.
        """
        payload_path, sidecar_path = self.paths(key)
        written: dict[str, Any] = {}

        def write(handle: IO[bytes]) -> None:
            if callable(payload):
                payload(handle)
            else:
                handle.write(payload)
            written.update(_digest(handle))

        atomic_write(payload_path, write)
        sidecar = {**fields, "key": key, **written}
        atomic_write(sidecar_path, dump_json(sidecar).encode("utf-8"))

    def load(
        self,
        key: str,
        fields: Mapping[str, Any],
        parse: Callable[[IO[bytes], dict[str, Any]], T],
    ) -> T | None:
        """``parse(payload_file, sidecar)`` of a verified entry, or ``None``
        on a miss, version skew or corruption (counted)."""
        payload_path, sidecar_path = self.paths(key)
        try:
            sidecar = json.loads(sidecar_path.read_bytes())
            if sidecar.get("key") != key or any(
                sidecar.get(name) != value for name, value in fields.items()
            ):
                return None
            with open(payload_path, "rb") as handle:
                found = _digest(handle)
                if found != {name: sidecar.get(name) for name in found}:
                    raise ValueError(
                        f"payload is {found['size']} bytes, sha256 "
                        f"{found['sha256'][:12]}; its sidecar disagrees"
                    )
                value = parse(handle, sidecar)
        except FileNotFoundError:
            return None
        except Exception as exc:  # noqa: BLE001 - any corruption => recompute
            report_corrupt(self.name, key, exc)
            return None
        try:
            os.utime(sidecar_path)  # the eviction recency signal
        except OSError:
            pass
        return value

    def get(self, key: str, fields: Mapping[str, Any]) -> bytes | None:
        """The verified payload bytes, or ``None``."""
        return self.load(key, fields, lambda handle, _sidecar: handle.read())

    def verify(self, key: str, fields: Mapping[str, Any]) -> bool:
        """Whether ``key`` holds an entry :meth:`get` would serve."""
        return self.load(key, fields, lambda _handle, _sidecar: True) is not None

    def entries(self) -> tuple[list[Entry], list[Path]]:
        """Complete pairs, plus orphans: payloads without a sidecar and
        temp files a killed writer left behind.

        Unreadable files are skipped, never raised — a concurrent writer
        or evictor is normal operation for these directories.
        """
        entries: list[Entry] = []
        orphans: list[Path] = sorted(self.directory.glob("*.tmp"))
        for payload in sorted(self.directory.glob(f"*{self.suffix}")):
            key = payload.name[: -len(self.suffix)]
            sidecar = self.directory / f"{key}.json"
            try:
                size = payload.stat().st_size
                mtime = sidecar.stat().st_mtime
            except OSError:
                orphans.append(payload)
                continue
            entries.append(Entry(key, payload, sidecar, size, mtime))
        return entries, orphans

    @staticmethod
    def evict(entry: Entry) -> bool:
        """Unlink one pair (best-effort); True when it is gone."""
        try:
            entry.payload.unlink(missing_ok=True)
            entry.sidecar.unlink(missing_ok=True)
        except OSError:
            return False
        return True
