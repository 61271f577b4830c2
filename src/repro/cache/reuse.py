"""Single-pass reuse-distance phase 1: one profile, every LRU geometry.

The stepping :class:`repro.cache.Cache` answers hit/miss questions for
one geometry per pass — a cold design-space sweep therefore costs
O(geometries x references) of pure-Python stepping.  For the registry's
common case — **LRU, write-back, write-allocate** — the Mattson
inclusion property collapses that product: an LRU set always contains
exactly the ``A`` most recently touched distinct lines mapping to it, so
a reference hits iff its per-set *stack distance* (distinct lines of the
same set touched since its previous touch) is below the associativity.
One reuse-distance pass over the trace answers **every** size and
associativity at once; per-geometry event streams become O(refs log
refs) numpy arithmetic instead of stepping.

The module is layered as memoizable views so a sweep shares work:

``ReuseProfile``
    Per *trace*: the memory references as flat arrays (instruction
    index, byte address, store flag, operand size).  This is the only
    per-reference Python loop and it runs once per trace, not per
    geometry.  :mod:`repro.cache.reuse_store` persists it.
``_LineView``
    Per ``line_size``: line ids, previous/next-touch tables, and the
    line-grouped order used for dirtiness scans.
``_SetView``
    Per ``(line_size, n_sets)``: per-set local ranks and the stack
    distances themselves (an inversion count over last-touch ranks,
    computed by a vectorized bottom-up mergesort).  Shared by every
    associativity of that set count.
:func:`derive_events`
    Per ``(line_size, n_sets, associativity)``: hit/miss flags, LRU
    victim identification, copy-back dirtiness and
    :class:`~repro.cache.stats.CacheStats` — a handful of cumsum /
    gather passes.  The result is pinned byte-identical to
    :func:`repro.cache.events.extract_events` (the stepping oracle) by
    the equivalence suite in ``tests/cache/test_reuse.py`` and
    ``tests/cpu/test_replay_equivalence.py``.

Why the derivations are exact (the invariants the vectorized passes
rely on, each checked against the oracle by the test suite):

* **Stack distance.** For a non-cold reference ``i`` with previous
  same-line touch ``p``, every same-set reference ``k`` strictly
  between them satisfies ``k`` *in the window* automatically when
  ``prev[k] > p`` (since ``k > prev[k]``).  Counting window references
  with ``prev[k] <= p`` as first touches therefore equals the window
  population minus the count of *earlier-in-set* references with
  ``prev[k] > p`` — an inversion count, which cross-set composite
  values confine to one set per comparison.
* **Fills and evictions.** Under write-allocate every miss fills, ways
  fill monotonically and nothing invalidates, so the first ``A`` fills
  of a set land in empty ways and every later fill evicts.
* **Victim identity.** A reference ``j`` is the *last touch of an
  evicted residency* iff its line leaves the set after ``j``: either
  its next touch is a miss, or there is no next touch and at least
  ``A`` distinct other lines are touched in the set afterwards.  Within
  a set, an earlier last-touch is evicted no later than a later one
  (its stack depth is always at least as large), so the k-th
  qualifying last-touch pairs with the k-th evicting fill.
* **Dirtiness.** A residency is dirty iff it absorbed a store: its
  fill was a write-allocate store miss or any later touch before the
  next miss of that line was a store hit.

Everything else — FIFO/random/PLRU replacement, write-through,
write-around — keeps using the stepping extractor (see
:func:`unsupported_reason`), exactly as :mod:`repro.cpu.replay` keeps
the step simulator for its own corners.  The substrate derivations
(victim buffer, prefetcher, multiprogramming, L2) rely on the same
invariants and share this scope (:func:`require_supported`).
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from repro.cache.cache import CacheConfig
from repro.cache.events import EventStream
from repro.cache.stats import CacheStats
from repro.cache.write_policy import AllocatePolicy, WritePolicy
from repro.obs import tracing
from repro.trace.record import Instruction, OpKind

#: Bumped whenever the profile array schema changes; part of the on-disk
#: key (:mod:`repro.cache.reuse_store`).
PROFILE_SCHEMA_VERSION = 1

#: Array fields persisted per profile, in schema order.
PROFILE_ARRAYS = ("index", "address", "is_store", "size")

#: Upper bound on memoized ``(line_size, n_sets)`` set views per profile
#: (each holds a few int64 arrays over the references); registry sweeps
#: use far fewer, the bound only protects pathological callers.
_MAX_SET_VIEWS = 16


def unsupported_reason(config: CacheConfig) -> str | None:
    """Why ``config`` must fall back to the stepping extractor.

    Returns ``None`` when the reuse engine covers the configuration
    (LRU replacement, write-back, write-allocate — the inclusion
    property breaks under anything else), otherwise a short token used
    as the ``reason`` label of ``engine.phase1.dispatches``.
    """
    if config.replacement != "lru":
        return f"replacement={config.replacement}"
    if config.write_policy is not WritePolicy.WRITE_BACK:
        return f"write_policy={config.write_policy.value}"
    if config.allocate_policy is not AllocatePolicy.WRITE_ALLOCATE:
        return f"allocate={config.allocate_policy.value}"
    return None


def supports(config: CacheConfig) -> bool:
    """Whether :func:`derive_events` covers ``config`` exactly."""
    return unsupported_reason(config) is None


def require_supported(config: CacheConfig) -> None:
    """Raise ``ValueError`` unless the reuse engine covers ``config``
    (the scope of :func:`derive_events` and of every derivation that
    relies on its LRU invariants)."""
    reason = unsupported_reason(config)
    if reason is not None:
        raise ValueError(f"reuse engine cannot derive {reason!r} configs")


#: Base block width of the merge counter: within-block pairs are counted
#: by one broadcast comparison, halving the number of merge levels.
_BASE_BLOCK = 32


def _count_greater_left(values: np.ndarray) -> np.ndarray:
    """``out[i] = #{k < i : values[k] > values[i]}`` for an int64 array.

    Bottom-up vectorized mergesort: at each level the blocks hold the
    elements of contiguous original ranges (sorted), so counting, for
    every right-half element, the left-half elements greater than it
    visits each out-of-order pair exactly once — O(n log^2 n) total in
    O(log n) numpy passes, no per-element Python.  Blocks of
    :data:`_BASE_BLOCK` seed the recursion with one O(n * base)
    broadcast, and each merge is two ``searchsorted`` + scatter passes
    (cheaper than re-sorting the concatenation).
    """
    n = values.shape[0]
    if n < 2:
        return np.zeros(n, dtype=np.int64)
    # Rank-compress: distinct ranks (stable, so ties rank in position
    # order, preserving the strict ``>`` relation), then pad with -1 —
    # smaller than every rank, so pads never count as greater.
    order = np.argsort(values, kind="stable")
    ranks = np.empty(n, dtype=np.int64)
    ranks[order] = np.arange(n, dtype=np.int64)
    m = max(_BASE_BLOCK, 1 << (n - 1).bit_length())
    vals = np.full(m, -1, dtype=np.int64)
    vals[:n] = ranks

    # Base case: slots still hold original positions, so within-block
    # greater-left counts land directly in position order.
    blocks = vals.reshape(-1, _BASE_BLOCK)
    earlier = (
        np.arange(_BASE_BLOCK)[:, None] < np.arange(_BASE_BLOCK)[None, :]
    )
    pairwise = blocks[:, :, None] > blocks[:, None, :]
    counts = (pairwise & earlier).sum(axis=1, dtype=np.int64).ravel()[:n]
    sort0 = np.argsort(blocks, axis=1, kind="stable")
    vals = np.take_along_axis(blocks, sort0, axis=1)
    idx = np.take_along_axis(
        np.arange(m, dtype=np.int64).reshape(-1, _BASE_BLOCK), sort0, axis=1
    )

    width = _BASE_BLOCK
    while width < m:
        pair = 2 * width
        v2 = vals.reshape(-1, pair)
        i2 = idx.reshape(-1, pair)
        # Each row is two sorted runs; numpy's stable sort (timsort)
        # merges them in near-linear time, and the permutation encodes
        # the cross-run counts.  For the right-run element of in-row
        # rank ``j`` landing at merged position ``q``, stability (left
        # run wins ties; the runs tie only on pads) means exactly
        # ``q - j`` left elements are <= it, so ``width - (q - j)`` are
        # greater — and all of them precede it in the original order.
        perm = np.argsort(v2, kind="stable", axis=1)
        positions = np.empty_like(perm)
        np.put_along_axis(
            positions,
            perm,
            np.broadcast_to(
                np.arange(pair, dtype=np.int64), perm.shape
            ),
            axis=1,
        )
        at_most = positions[:, width:] - np.arange(width, dtype=np.int64)
        targets = i2[:, width:]
        real = targets < n
        # Each element sits in exactly one right half per level, so the
        # fancy-indexed += never hits duplicate targets.
        counts[targets[real]] += (width - at_most)[real]
        vals = np.take_along_axis(v2, perm, axis=1)
        idx = np.take_along_axis(i2, perm, axis=1)
        width = pair
    return counts


class _LineView:
    """Per-``line_size`` tables shared by every geometry using it."""

    def __init__(self, profile: "ReuseProfile", line_size: int) -> None:
        address = profile.address
        n = address.shape[0]
        self.line_size = line_size
        self.line_addr = address & ~np.int64(line_size - 1)
        self.offset = address & np.int64(line_size - 1)
        _, line_id = np.unique(self.line_addr, return_inverse=True)
        self.line_id = line_id.astype(np.int64, copy=False)
        # Line-grouped order: by line id, time order within each line.
        order = np.argsort(self.line_id, kind="stable")
        self.line_order = order
        prev = np.full(n, -1, dtype=np.int64)
        nxt = np.full(n, n, dtype=np.int64)
        if n:
            same = self.line_id[order][1:] == self.line_id[order][:-1]
            prev[order[1:][same]] = order[:-1][same]
            nxt[order[:-1][same]] = order[1:][same]
        self.prev = prev
        self.next = nxt
        self.cold = prev < 0
        # Inclusive store prefix over the line-grouped order (dirtiness
        # scans difference it across residency episodes).
        self.store_grouped = profile.is_store[order].astype(np.int64)
        self.cum_store = np.cumsum(self.store_grouped)


class _SetView:
    """Per-``(line_size, n_sets)`` stack distances, any associativity."""

    def __init__(
        self, profile: "ReuseProfile", lines: _LineView, n_sets: int
    ) -> None:
        n = profile.n_accesses
        self.n_sets = n_sets
        set_of = (lines.line_addr // np.int64(lines.line_size)) & np.int64(
            n_sets - 1
        )
        self.set_of = set_of
        # Set-grouped order: by set, time order within each set.
        order = np.argsort(set_of, kind="stable")
        self.order = order
        counts = np.bincount(set_of, minlength=n_sets)
        self.counts = counts
        starts = np.zeros(n_sets, dtype=np.int64)
        np.cumsum(counts[:-1], out=starts[1:])
        self.starts = starts
        pos = np.empty(n, dtype=np.int64)  # position in set-grouped order
        pos[order] = np.arange(n, dtype=np.int64)
        self.pos = pos
        local = pos - starts[set_of]  # rank within own set
        self.local = local

        prev, cold = lines.prev, lines.cold
        p_local = np.where(cold, -1, local[np.maximum(prev, 0)])
        # Inversions over last-touch ranks, confined to one set per
        # comparison by set-dominant composite values (an earlier set's
        # value is always smaller, contributing no "greater" pairs).
        # Two classes of references are dropped from the count first:
        #
        # * *cold* references carry the minimal last-touch rank of their
        #   set, so they are never "greater" than anything (and their
        #   own count feeds a sentinel distance nobody reads);
        # * *immediate re-touches* (``p_local == local - 1``) add
        #   exactly 1 to the population *and* the duplicate count of
        #   every window that contains them — any such window's anchor
        #   has ``p_local_anchor < local - 1`` (equality would make the
        #   re-touch share the anchor's line, contradicting the
        #   anchor's prev pointer), so the two contributions cancel in
        #   the stack distance.  Their own windows are empty (sd = 0).
        #
        # High-locality traces re-touch constantly (a stride-1 walk
        # re-touches its line once per element), so the O(k log^2 k)
        # inversion count runs over a small fraction of the references.
        retouch = ~cold & (p_local == local - 1)
        counted = ~(cold | retouch)
        duplicates = np.zeros(n, dtype=np.int64)
        composite = set_of * np.int64(n + 1) + (p_local + 1)
        counted_in_order = order[counted[order]]
        duplicates[counted_in_order] = _count_greater_left(
            composite[counted_in_order]
        )
        # Re-add the dropped re-touches analytically: a per-set prefix
        # count of re-touches, differenced across each window.
        retouch_prefix = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(retouch[order], out=retouch_prefix[1:])
        window_retouches = retouch_prefix[pos] - retouch_prefix[
            starts[set_of] + p_local + 1
        ]
        # Stack distance: window population minus re-touches of lines
        # already counted; cold references get an out-of-range sentinel
        # (and are forced to miss explicitly during derivation).
        self.sd = np.where(
            cold,
            np.int64(n),
            local - p_local - 1 - duplicates - window_retouches,
        )

        # stab[j]: distinct lines of the set touched strictly after j.
        # Each reference t is the first touch after position c of its
        # line exactly for c in [pos(prev(t)) + 1, pos(t) - 1] (from the
        # set start when cold): +1/-1 a difference array and cumsum.
        plus = np.where(cold, starts[set_of], pos[np.maximum(prev, 0)] + 1)
        delta = np.bincount(plus, minlength=n + 1) - np.bincount(
            pos, minlength=n + 1
        )
        self.stab = np.cumsum(delta[:n])[pos] if n else np.zeros(0, np.int64)


class ReuseProfile:
    """Geometry-independent reuse profile of one trace.

    Holds the trace's memory references as parallel arrays plus lazily
    built, memoized line/set views.  One profile serves every LRU
    write-back geometry of a sweep.
    """

    def __init__(
        self,
        n_instructions: int,
        index: np.ndarray,
        address: np.ndarray,
        is_store: np.ndarray,
        size: np.ndarray,
    ) -> None:
        self.n_instructions = int(n_instructions)
        self.index = index
        self.address = address
        self.is_store = is_store
        self.size = size
        self._line_views: dict[int, _LineView] = {}
        self._set_views: dict[tuple[int, int], _SetView] = {}

    @property
    def n_accesses(self) -> int:
        """Number of loads/stores profiled."""
        return int(self.index.shape[0])

    @property
    def nbytes(self) -> int:
        """Bytes held by the reference arrays and the memoized views."""
        holders = (self, *self._line_views.values(), *self._set_views.values())
        return sum(
            value.nbytes
            for holder in holders
            for value in vars(holder).values()
            if isinstance(value, np.ndarray)
        )

    def line_view(self, line_size: int) -> _LineView:
        """Memoized per-line-size tables."""
        view = self._line_views.get(line_size)
        if view is None:
            view = _LineView(self, line_size)
            self._line_views[line_size] = view
        return view

    def set_view(self, line_size: int, n_sets: int) -> _SetView:
        """Memoized per-(line size, set count) stack distances."""
        key = (line_size, n_sets)
        view = self._set_views.get(key)
        if view is None:
            if len(self._set_views) >= _MAX_SET_VIEWS:
                self._set_views.pop(next(iter(self._set_views)))
            view = _SetView(self, self.line_view(line_size), n_sets)
            self._set_views[key] = view
        return view


def build_profile(instructions: Iterable[Instruction]) -> ReuseProfile:
    """One pass over the trace: the geometry-independent reference lists.

    The per-reference Python loop of a sweep lives here and only here —
    it runs once per trace, after which every geometry is array math.
    """
    alu = OpKind.ALU
    store = OpKind.STORE
    idx: list[int] = []
    address: list[int] = []
    stores: list[bool] = []
    size: list[int] = []
    n = 0
    with tracing.span("phase1.build_profile") as sp:
        for i, inst in enumerate(instructions):
            n += 1
            kind = inst.kind
            if kind is alu:
                continue
            idx.append(i)
            address.append(inst.address)
            stores.append(kind is store)
            size.append(inst.size)
        sp.set(instructions=n, accesses=len(idx))
    return ReuseProfile(
        n_instructions=n,
        index=np.asarray(idx, dtype=np.int64),
        address=np.asarray(address, dtype=np.int64),
        is_store=np.asarray(stores, dtype=bool),
        size=np.asarray(size, dtype=np.int64),
    )


def pair_victims(
    miss: np.ndarray,
    order: np.ndarray,
    starts: np.ndarray,
    counts: np.ndarray,
    next_touch: np.ndarray,
    later_lines: np.ndarray,
    assoc: int,
) -> tuple[np.ndarray, np.ndarray]:
    """LRU victim pairing: ``(victim_touch, evicting_fill)``, aligned.

    ``miss``, ``next_touch`` (``n`` where there is none) and
    ``later_lines`` (distinct other lines of the set touched after a
    line's final touch; read only there) are per access in program
    order; ``order``/``starts``/``counts`` group the accesses by set,
    time order within each set.  Returns program-order positions: the
    k-th entry of ``evicting_fill`` evicts the line last touched at the
    k-th entry of ``victim_touch``.
    """
    n = miss.shape[0]
    # Fill ordinals per set: the first A fills land in invalid ways,
    # every later fill evicts the set's current LRU line.
    miss_grouped = miss[order]
    fill_count = np.concatenate(([0], np.cumsum(miss_grouped)))
    fills_through = fill_count[1:] - np.repeat(fill_count[starts], counts)
    evicting_grouped = miss_grouped & (fills_through > assoc)

    # Qualifying last touches: the line leaves the set before being
    # touched again (next touch misses, or no next touch and >= A
    # distinct other lines follow).
    has_next = next_touch < n
    next_miss = np.zeros(n, dtype=bool)
    next_miss[has_next] = miss[next_touch[has_next]]
    qualifying = np.where(has_next, next_miss, later_lines >= assoc)

    # Within a set, earlier last-touches are evicted no later than
    # later ones and the counts match, so the k-th qualifying last
    # touch is the victim of the k-th evicting fill.  Both masks are
    # scanned in set-grouped order, so flatnonzero aligns them
    # set-by-set.
    victim_touch = order[np.flatnonzero(qualifying[order])]
    evicting_fill = order[np.flatnonzero(evicting_grouped)]
    return victim_touch, evicting_fill


def derive_events(profile: ReuseProfile, config: CacheConfig) -> EventStream:
    """Derive the exact :class:`EventStream` for one LRU/WB geometry.

    Byte-identical to ``extract_events(trace, config)`` — arrays and
    :class:`CacheStats` both — for every configuration
    :func:`supports` accepts; raises ``ValueError`` otherwise.
    """
    require_supported(config)
    n = profile.n_accesses
    assoc = config.associativity
    lines = profile.line_view(config.line_size)
    if n == 0:
        return _empty_stream(profile, config)
    sets = profile.set_view(config.line_size, config.n_sets)

    with tracing.span(
        "phase1.derive_events",
        cache_bytes=config.total_bytes,
        line_size=config.line_size,
        associativity=assoc,
    ):
        miss = lines.cold | (sets.sd >= assoc)
        victim_touch, evicting_fill = pair_victims(
            miss,
            sets.order,
            sets.starts,
            sets.counts,
            lines.next,
            sets.stab,
            assoc,
        )

        # Dirtiness at the victim's last touch: any store since the
        # residency's fill (misses segment each line's touch chain into
        # residencies; every chain starts with a cold miss, so the
        # running maximum never crosses a line boundary).
        grouped = lines.line_order
        positions = np.arange(n, dtype=np.int64)
        fill_at = np.maximum.accumulate(
            np.where(miss[grouped], positions, -1)
        )
        cum_store = lines.cum_store
        dirty_grouped = (
            cum_store - cum_store[fill_at] + lines.store_grouped[fill_at]
        ) > 0
        dirty = np.empty(n, dtype=bool)
        dirty[grouped] = dirty_grouped
        victim_dirty = dirty[victim_touch]

        dirty_victim = np.zeros(n, dtype=bool)
        flush_line = np.full(n, -1, dtype=np.int64)
        flushed_fills = evicting_fill[victim_dirty]
        dirty_victim[flushed_fills] = True
        flush_line[flushed_fills] = lines.line_addr[
            victim_touch[victim_dirty]
        ]

        is_store = profile.is_store
        store_miss = int(np.count_nonzero(is_store & miss))
        stats = CacheStats(
            line_size=config.line_size,
            read_hits=int(np.count_nonzero(~is_store & ~miss)),
            read_misses=int(np.count_nonzero(~is_store & miss)),
            write_hits=int(np.count_nonzero(is_store & ~miss)),
            write_misses=store_miss,
            write_allocate_fills=store_miss,
            flushed_lines=int(np.count_nonzero(victim_dirty)),
            evictions=int(evicting_fill.shape[0]),
        )

    return EventStream(
        config=config,
        n_instructions=profile.n_instructions,
        index=profile.index,
        line=lines.line_addr,
        offset=lines.offset,
        is_miss=miss,
        dirty_victim=dirty_victim,
        is_store=is_store,
        stats=stats,
        flush_line=flush_line,
        write_through=np.zeros(n, dtype=bool),
        write_around=np.zeros(n, dtype=bool),
        size=profile.size,
    )


def _empty_stream(profile: ReuseProfile, config: CacheConfig) -> EventStream:
    """The zero-access stream (ALU-only or empty traces)."""
    return EventStream(
        config=config,
        n_instructions=profile.n_instructions,
        index=np.asarray([], dtype=np.int64),
        line=np.asarray([], dtype=np.int64),
        offset=np.asarray([], dtype=np.int64),
        is_miss=np.asarray([], dtype=bool),
        dirty_victim=np.asarray([], dtype=bool),
        is_store=np.asarray([], dtype=bool),
        stats=CacheStats(line_size=config.line_size),
        flush_line=np.asarray([], dtype=np.int64),
        write_through=np.asarray([], dtype=bool),
        write_around=np.asarray([], dtype=bool),
        size=np.asarray([], dtype=np.int64),
    )
