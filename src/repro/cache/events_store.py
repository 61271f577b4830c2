"""Content-addressed on-disk cache of extracted :class:`EventStream`\\ s.

Phase 1 of the two-phase engine (the functional cache pass of
:func:`repro.cache.events.extract_events`) is deterministic: the same
trace run against the same :class:`~repro.cache.cache.CacheConfig`
always yields the same event arrays.  This module persists those arrays
so repeated runs — benchmark reruns, ``--all`` invocations, CI — skip
both trace generation and the pure-Python cache stepping entirely.

Key derivation (see ``docs/ENGINE.md``): the cache key is the SHA-256 of
a human-readable *key material* string joining

* the address format (``store/1``),
* the event-array schema version
  (:data:`repro.cache.events.EVENT_SCHEMA_VERSION`),
* the trace fingerprint (e.g. ``spec92/1/swm256/60000/7`` from
  :func:`repro.trace.spec92.trace_fingerprint` — generator version,
  program, length, seed), and
* every :class:`CacheConfig` field that can influence the functional
  pass.

Bumping a schema or generator version therefore invalidates exactly
the entries it should; no mtime heuristics, no manual cleanup required.
Entries live in a :class:`~repro.util.blobstore.BlobStore`:
``<key>.npz`` (the arrays named by
:data:`~repro.cache.events.EVENT_ARRAYS`) beside a ``<key>.json``
sidecar holding the versions, the key material, the
:class:`~repro.cache.stats.CacheStats` counters and the payload's size
and sha256.  The store layout version (:data:`STORE_VERSION`) lives in
the sidecar only: a layout bump turns old entries into plain misses that
the next save overwrites in place, and leaves content addresses — which
the service also shards requests on — where they were.  Any load
failure — corrupt file, schema mismatch, partial write — silently falls
back to re-extraction.

:func:`get_or_extract` is the process's only memo of event streams:
the experiments, the service's batch thread, campaigns and ``campaign
compare`` all reach phase 1 through it.  The memo
(:class:`~repro.util.blobstore.Memo`, the reuse store's rule) is keyed
on the entry key and bounded by :data:`_MEMO_BYTES`.

Opt-out / redirection:

* ``REPRO_EVENTS_CACHE=0`` (or ``off``) disables the store and the
  memo entirely (the experiment runner's ``--no-events-cache`` flag
  sets this, which also propagates to ``--jobs`` worker processes);
* ``REPRO_EVENTS_CACHE_DIR=<path>`` overrides the default location
  ``$XDG_CACHE_HOME/repro/events`` (``~/.cache/repro/events``).

Determinism note: the disk store intentionally records no metrics
counters on its normal hit/miss paths — a cold and a warm run must
produce byte-identical metrics snapshots.  Cache activity is visible
through span tracing (``events_store.load`` / ``events_store.save``) and
debug logging.  The memo's ``phase1.memo.{hit,miss}`` counters do not
depend on the disk: they count in-process lookups, which the runner
makes from an empty memo in every experiment.  The one exception is the
**diagnostic-only** ``store.corrupt_recompute{store=events}`` counter,
bumped when a present entry fails to load and silently falls back to
re-extraction; :func:`repro.obs.manifest.stable_view` strips it (see
:data:`~repro.obs.manifest.DIAGNOSTIC_COUNTERS`) so the determinism
contract is unchanged.
"""

from __future__ import annotations

import dataclasses
import hashlib
import logging
from collections.abc import Callable, Mapping, Sequence
from pathlib import Path
from typing import Any

import numpy as np

from repro.cache.cache import CacheConfig
from repro.cache.events import (
    EVENT_ARRAYS,
    EVENT_SCHEMA_VERSION,
    EventStream,
    extract_events,
)
from repro.cache.reuse import ReuseProfile
from repro.cache.stats import CacheStats
from repro.obs import metrics, tracing
from repro.trace.recipe import trace_recipe
from repro.trace.record import Instruction
from repro.util import storeenv
from repro.util.blobstore import BlobStore, Memo

log = logging.getLogger("repro.events_store")

#: Bump when the on-disk layout (file naming, sidecar format) changes.
STORE_VERSION = 2

#: Set to ``0``/``off``/``false`` to disable the store.
EVENTS_CACHE_ENV = "REPRO_EVENTS_CACHE"

#: Overrides the default cache directory.
EVENTS_CACHE_DIR_ENV = "REPRO_EVENTS_CACHE_DIR"

#: In-process memo bound: bytes held by the memoized streams (their
#: event arrays plus every view built since: the fill windows, and the
#: plain-list ``derived`` views with their walks, see
#: ``EventStream.nbytes``).  Figure 1's six 60k-instruction spec92
#: streams build only fill windows, hold about 6.8 MiB and stay resident
#: while its four policies replay them; a 60k stream replayed per point
#: holds about 4.4 MiB once ``derived`` and its general walk exist; a
#: 48x48 matmul's stream holds 10-12 MiB, so it is dropped before the
#: next lookup loads or builds, and never sits beside the next tile's
#: 30 MiB reuse profile (the tiling extension sets the peak RSS of
#: ``--all``).
_MEMO_BYTES = 8 * 2**20

_memo: Memo[EventStream] = Memo(_MEMO_BYTES)


def cache_enabled() -> bool:
    """Whether the on-disk store is active (checked per call, so tests
    and ``--no-events-cache`` can flip it at runtime)."""
    return storeenv.enabled(EVENTS_CACHE_ENV)


def cache_dir() -> Path:
    """Resolved cache directory (not created until first save)."""
    return storeenv.store_dir(EVENTS_CACHE_DIR_ENV, "events")


def store() -> BlobStore:
    """The event-stream store in :func:`cache_dir`."""
    return BlobStore(cache_dir(), "events", ".npz")


def key_material(trace_fingerprint: str, config: CacheConfig) -> str:
    """The human-readable string whose SHA-256 addresses one entry."""
    return (
        "store/1"
        f"|events/{EVENT_SCHEMA_VERSION}"
        f"|trace/{trace_fingerprint}"
        f"|cache/{config.total_bytes}/{config.line_size}"
        f"/{config.associativity}/{config.replacement}"
        f"/{config.write_policy.name}/{config.allocate_policy.name}"
    )


def entry_key(trace_fingerprint: str, config: CacheConfig) -> str:
    """Content address (hex SHA-256) of one ``(trace, geometry)`` entry."""
    material = key_material(trace_fingerprint, config)
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def _fields(trace_fingerprint: str, config: CacheConfig) -> dict[str, object]:
    """Sidecar fields a loaded entry must match."""
    return {
        "store_version": STORE_VERSION,
        "event_schema_version": EVENT_SCHEMA_VERSION,
        "key_material": key_material(trace_fingerprint, config),
    }


def save(trace_fingerprint: str, config: CacheConfig, events: EventStream) -> None:
    """Persist one extracted stream (best-effort: failures only log)."""
    if not cache_enabled():
        return
    key = entry_key(trace_fingerprint, config)
    stats = {
        f.name: getattr(events.stats, f.name)
        for f in dataclasses.fields(events.stats)
    }
    fields = {
        **_fields(trace_fingerprint, config),
        "n_instructions": events.n_instructions,
        "stats": stats,
    }
    arrays = {name: getattr(events, name) for name in EVENT_ARRAYS}
    try:
        with tracing.span("events_store.save", key=key[:12]):
            store().put(key, lambda handle: np.savez(handle, **arrays), fields)
    except OSError as exc:
        log.debug("events_store: save failed for %s: %s", key[:12], exc)


def load(trace_fingerprint: str, config: CacheConfig) -> EventStream | None:
    """Load one entry, or None on miss/corruption/schema mismatch."""
    if not cache_enabled():
        return None
    key = entry_key(trace_fingerprint, config)

    def parse(handle, sidecar) -> EventStream:
        with np.load(handle) as payload:
            arrays = {name: payload[name] for name in EVENT_ARRAYS}
        return EventStream(
            config=config,
            n_instructions=int(sidecar["n_instructions"]),
            stats=CacheStats(**sidecar["stats"]),
            **arrays,
        )

    with tracing.span("events_store.load", key=key[:12]):
        return store().load(key, _fields(trace_fingerprint, config), parse)


def get_or_extract(
    trace_fingerprint: str,
    config: CacheConfig,
    trace_factory: Callable[[], Sequence[Instruction]],
    profile_factory: Callable[[], "object"] | None = None,
) -> EventStream:
    """The one phase-1 entry point: memo hit, disk hit, or extract +
    persist.

    ``trace_factory`` is only invoked on a miss, so warm runs skip trace
    generation entirely (a significant cost for the loop-nest traces).
    ``profile_factory``, when given, builds the
    :class:`repro.cache.reuse.ReuseProfile` directly — generators whose
    reference stream is analytically known (the loop nests) use it to
    skip both Instruction materialization and the per-reference
    ``build_profile`` loop; it must be byte-identical to
    ``build_profile(trace_factory())`` and is ignored on the stepping
    fallback paths.
    """
    key = entry_key(trace_fingerprint, config)
    caching = cache_enabled()
    if caching:
        events = _memo.get(key)
        if events is not None:
            metrics.inc("phase1.memo.hit")
            return events
    metrics.inc("phase1.memo.miss")
    events = load(trace_fingerprint, config)
    if events is not None:
        log.debug("events_store: hit %s", trace_fingerprint)
    else:
        events = _extract(
            trace_fingerprint, config, trace_factory, profile_factory
        )
        save(trace_fingerprint, config, events)
    if caching:
        _memo.put(key, events)
    return events


def trace_events(trace: Mapping[str, Any], config: CacheConfig) -> EventStream:
    """Phase 1 for a described trace (:func:`repro.trace.recipe.trace_recipe`).

    :func:`get_or_extract` with the recipe's fingerprint and
    instructions; a cold LRU geometry profiles the recipe's reference
    arrays instead of materializing the trace.
    """
    recipe = trace_recipe(trace)
    return get_or_extract(
        recipe.fingerprint,
        config,
        recipe.instructions,
        profile_factory=lambda: ReuseProfile(*recipe.arrays()),
    )


def clear_memory() -> None:
    """Drop the in-process stream memo (not the disk store)."""
    _memo.clear()


def _extract(
    trace_fingerprint: str,
    config: CacheConfig,
    trace_factory: Callable[[], Sequence[Instruction]],
    profile_factory: Callable[[], "object"] | None = None,
) -> EventStream:
    """Extract one stream through the fastest exact engine available.

    LRU/write-back/write-allocate geometries derive from the per-trace
    reuse profile (:mod:`repro.cache.reuse`) — byte-identical to
    stepping, one shared O(refs log refs) pass per trace instead of a
    pure-Python cache pass per geometry.  Everything else steps
    :class:`repro.cache.Cache`.
    Either way the choice is recorded in the diagnostic-only
    ``engine.phase1.dispatches{engine=,reason=}`` counter (mirroring
    ``engine.step_fallback.dispatches``; stripped by ``stable_view``
    because warm runs never reach this function at all).
    """
    from repro.cache import reuse, reuse_store

    reason = reuse.unsupported_reason(config)
    if reason is not None:
        metrics.inc("engine.phase1.dispatches", engine="step", reason=reason)
        return extract_events(trace_factory(), config)
    profile = reuse_store.get_or_build(
        trace_fingerprint, trace_factory, profile_factory
    )
    metrics.inc("engine.phase1.dispatches", engine="reuse", reason="lru_wb_wa")
    return reuse.derive_events(profile, config)
