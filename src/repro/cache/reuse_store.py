"""Content-addressed store of per-trace :class:`ReuseProfile`\\ s.

The reuse engine (:mod:`repro.cache.reuse`) needs one profile per
*trace* — not per (trace, geometry) like the event streams — so the
store here is keyed on the trace fingerprint alone.  A cold LRU sweep
then pays one trace generation + one profiling pass, after which every
geometry derives from the same arrays.

Entries live in a :class:`~repro.util.blobstore.BlobStore` in the
``reuse/`` subdirectory of the events store's directory: an ``.npz``
payload (the arrays in :data:`~repro.cache.reuse.PROFILE_ARRAYS`) plus
a JSON sidecar — so ``REPRO_EVENTS_CACHE_DIR`` redirects both stores
and wiping one cold-start wipes the other.  Persistence obeys the same
``REPRO_EVENTS_CACHE`` opt-out.

A small in-process memo keeps the most recent profiles (with their
lazily built line/set views) alive across the many ``get_or_extract``
calls of one sweep, so the expensive stack-distance arithmetic is
shared, not just the reference arrays.  It follows the events store's
memo rule (:class:`repro.util.blobstore.Memo`): bounded by the bytes
its profiles hold, except for the profile being looked up, so a large
profile (a loop nest's) stays only until another trace is looked up.

Determinism note: like the events store, normal hit/miss paths record
no metrics counters.  The one exception is the diagnostic-only
``store.corrupt_recompute{store=reuse}`` counter (a present entry that
fails to load, silently rebuilt); :func:`repro.obs.manifest.stable_view`
strips it so cold/warm metrics snapshots stay byte-identical.
"""

from __future__ import annotations

import hashlib
import logging
from collections.abc import Callable, Sequence

import numpy as np

from repro.cache import events_store
from repro.cache.reuse import (
    PROFILE_ARRAYS,
    PROFILE_SCHEMA_VERSION,
    ReuseProfile,
    build_profile,
)
from repro.obs import tracing
from repro.trace.record import Instruction
from repro.util.blobstore import BlobStore, Memo

log = logging.getLogger("repro.reuse_store")

#: Bump when the on-disk layout (file naming, sidecar format) changes.
PROFILE_STORE_VERSION = 2

#: In-process memo bound: bytes held by the memoized profiles (their
#: reference arrays plus the line/set views built since).  A registry
#: sweep's spec92 profiles hold about 2.7 MiB each at 60k instructions;
#: a 48x48 matmul's holds about 30 MiB, so it is kept only while its
#: own trace is being looked up.
_MEMO_BYTES = 24 * 2**20

_memo: Memo[ReuseProfile] = Memo(_MEMO_BYTES)


def store() -> BlobStore:
    """The profile store: ``reuse/`` under the events store's directory."""
    return BlobStore(events_store.cache_dir() / "reuse", "reuse", ".npz")


def key_material(trace_fingerprint: str) -> str:
    """The human-readable string whose SHA-256 addresses one profile.

    Like the events store, the layout version
    (:data:`PROFILE_STORE_VERSION`) is checked in the sidecar, not
    hashed into the address.
    """
    return (
        "reuse/1"
        f"|profile/{PROFILE_SCHEMA_VERSION}"
        f"|trace/{trace_fingerprint}"
    )


def entry_key(trace_fingerprint: str) -> str:
    """Content address (hex SHA-256) of one trace's profile."""
    material = key_material(trace_fingerprint)
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def _fields(trace_fingerprint: str) -> dict[str, object]:
    """Sidecar fields a loaded profile must match."""
    return {
        "store_version": PROFILE_STORE_VERSION,
        "profile_schema_version": PROFILE_SCHEMA_VERSION,
        "key_material": key_material(trace_fingerprint),
    }


def save(trace_fingerprint: str, profile: ReuseProfile) -> None:
    """Persist one profile (best-effort: failures only log)."""
    if not events_store.cache_enabled():
        return
    key = entry_key(trace_fingerprint)
    fields = {
        **_fields(trace_fingerprint),
        "n_instructions": profile.n_instructions,
    }
    arrays = {name: getattr(profile, name) for name in PROFILE_ARRAYS}
    try:
        with tracing.span("reuse_store.save", key=key[:12]):
            store().put(key, lambda handle: np.savez(handle, **arrays), fields)
    except OSError as exc:
        log.debug("reuse_store: save failed for %s: %s", key[:12], exc)


def load(trace_fingerprint: str) -> ReuseProfile | None:
    """Load one profile, or None on miss/corruption/schema mismatch."""
    if not events_store.cache_enabled():
        return None
    key = entry_key(trace_fingerprint)

    def parse(handle, sidecar) -> ReuseProfile:
        with np.load(handle) as payload:
            arrays = {name: payload[name] for name in PROFILE_ARRAYS}
        return ReuseProfile(n_instructions=int(sidecar["n_instructions"]), **arrays)

    with tracing.span("reuse_store.load", key=key[:12]):
        return store().load(key, _fields(trace_fingerprint), parse)


def get_or_build(
    trace_fingerprint: str,
    trace_factory: Callable[[], Sequence[Instruction]],
    profile_factory: Callable[[], ReuseProfile] | None = None,
) -> ReuseProfile:
    """Memoized profile for one trace: memo hit, disk hit, or build.

    ``trace_factory`` only runs when neither the memo nor the disk has
    the profile, so a geometry fan over one trace generates the trace at
    most once — and usually never, on warm stores.  When
    ``profile_factory`` is given it replaces
    ``build_profile(trace_factory())`` on that cold path; callers must
    guarantee it produces byte-identical arrays (loop-nest generators
    derive them analytically, see
    :func:`repro.trace.loops.square_matmul_profile_arrays`).  The memo
    obeys the ``REPRO_EVENTS_CACHE`` opt-out along with the disk files:
    that env promises full recomputation, in-process or not.
    """
    caching = events_store.cache_enabled()
    if caching:
        profile = _memo.get(trace_fingerprint)
        if profile is not None:
            return profile
    profile = load(trace_fingerprint)
    if profile is None:
        if profile_factory is not None:
            profile = profile_factory()
        else:
            profile = build_profile(trace_factory())
        save(trace_fingerprint, profile)
    if caching:
        _memo.put(trace_fingerprint, profile)
    return profile


def clear_memory() -> None:
    """Drop the in-process profile memo (tests; not the disk store)."""
    _memo.clear()
