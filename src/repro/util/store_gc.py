"""``python -m repro cache gc``: trim the on-disk stores to a byte budget.

The events, reuse-profile and result stores are all
:class:`~repro.util.blobstore.BlobStore`\\ s, so one command walks each
store's :meth:`~repro.util.blobstore.BlobStore.entries` and evicts
complete pairs with the same oldest-sidecar-first
:func:`~repro.util.blobstore.plan_evictions` the disk result tier
applies online — the two paths can never disagree about what "oldest
first" means, nor about where a store's files live.

An orphan (a payload without a readable sidecar, or a ``*.tmp`` file)
can never be loaded, but it may also be an atomic write in flight.  It
is removed only once it is older than :data:`ORPHAN_GRACE_S`.
"""

from __future__ import annotations

import time
from typing import Any

from repro.util.blobstore import BlobStore, plan_evictions

#: An orphan younger than this is assumed to be a write in flight
#: (payload landed, sidecar next) and is left alone.
ORPHAN_GRACE_S = 60.0


def known_stores() -> dict[str, BlobStore]:
    """The three stores ``cache gc`` manages.

    Directories resolve through each store's own rules (env overrides
    included), so ``gc`` always looks where the writers write.
    """
    from repro.cache import events_store, reuse_store
    from repro.service import disk_cache

    return {
        "events": events_store.store(),
        "reuse": reuse_store.store(),
        "results": disk_cache.store(disk_cache.resolve_cache_dir(None)),
    }


def gc_store(
    store: BlobStore,
    budget_bytes: int,
    dry_run: bool = False,
    now: float | None = None,
) -> dict[str, Any]:
    """Trim one store to the byte budget; returns a JSON-ready report.

    Evicts complete pairs oldest-first until the payload footprint fits
    the budget, and removes orphans older than :data:`ORPHAN_GRACE_S`.
    With ``dry_run`` nothing is unlinked; the report carries what
    *would* go.
    """
    now = time.time() if now is None else now
    entries, orphans = store.entries()
    total = sum(entry.size for entry in entries)
    evicted = 0
    evicted_bytes = 0
    for entry in plan_evictions(entries, budget_bytes):
        if dry_run or store.evict(entry):
            evicted += 1
            evicted_bytes += entry.size
    orphans_removed = 0
    for orphan in orphans:
        try:
            if now - orphan.stat().st_mtime < ORPHAN_GRACE_S:
                continue
            if not dry_run:
                orphan.unlink(missing_ok=True)
        except OSError:
            continue
        orphans_removed += 1
    return {
        "store": store.name,
        "directory": str(store.directory),
        "entries": len(entries),
        "bytes": total,
        "budget_bytes": budget_bytes,
        "evicted": evicted,
        "evicted_bytes": evicted_bytes,
        "orphans_removed": orphans_removed,
        "bytes_after": total - evicted_bytes,
        "dry_run": dry_run,
    }


def main(argv: list[str] | None = None) -> int:
    """``python -m repro cache gc``: trim the on-disk stores."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro cache",
        description="Manage the content-addressed on-disk stores.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    gc = commands.add_parser(
        "gc", help="evict oldest-used entries down to a byte budget"
    )
    gc.add_argument(
        "--budget-mib",
        type=float,
        required=True,
        help="per-store payload byte budget",
    )
    gc.add_argument(
        "--store",
        choices=["events", "reuse", "results", "all"],
        default="all",
        help="which store to trim (default: all three)",
    )
    gc.add_argument(
        "--dry-run",
        action="store_true",
        help="report what would be evicted without unlinking anything",
    )
    options = parser.parse_args(argv)
    budget = int(options.budget_mib * 1024 * 1024)
    if budget <= 0:
        parser.error(f"--budget-mib must be > 0, got {options.budget_mib:g}")
    stores = known_stores()
    selected = (
        list(stores.values())
        if options.store == "all"
        else [stores[options.store]]
    )
    for store in selected:
        report = gc_store(store, budget, dry_run=options.dry_run)
        verb = "would evict" if options.dry_run else "evicted"
        print(
            f"{report['store']}: {report['entries']} entries, "
            f"{report['bytes']} bytes in {report['directory']}; "
            f"{verb} {report['evicted']} entries "
            f"({report['evicted_bytes']} bytes), "
            f"{report['orphans_removed']} orphans -> "
            f"{report['bytes_after']} bytes"
        )
    return 0
