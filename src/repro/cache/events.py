"""Phase 1 of the two-phase simulation engine: functional event extraction.

The cache's hit/miss/copy-back behaviour is completely independent of
memory timing: which references miss, which victims are dirty, which
stores generate write-through/write-around traffic, and which later
references re-touch an in-flight line are all decided by the cache
geometry and the reference stream alone.  This module runs that untimed
functional pass **once** per ``(trace, CacheConfig)`` and emits a compact
:class:`EventStream` — numpy arrays over the memory references — from
which the timing replay engines (:mod:`repro.cpu.replay`) can compute
exact cycle accounting for any ``(policy, beta_m)`` point without ever
stepping instructions again.

Schema (all arrays are parallel, one entry per load/store, in program
order; see ``docs/ENGINE.md``):

==============  ======================================================
array           meaning
==============  ======================================================
index           instruction index of the reference within the trace
line            line-aligned address referenced
offset          byte offset of the reference within its line
is_miss         the reference filled a line (read miss or
                write-allocate miss)
dirty_victim    the fill evicted a dirty line (a copy-back is owed)
is_store        the reference was a store
flush_line      line address of the dirty victim owed a copy-back,
                -1 when none (== dirty_victim as a flag)
write_through   the store was propagated to memory (write-through hit,
                or a write-allocate miss under write-through)
write_around    the store missed and went straight to memory (no fill)
size            operand size in bytes (drives ``write_duration``)
==============  ======================================================

Derived per-miss structures (the exact inputs Eq. 8 and the Table 2
stall semantics need) are computed lazily and cached on the stream.
``windows`` holds them as numpy arrays (what the βm-grid replay kernel
reads); ``derived`` holds plain-list copies for the per-point kernels
plus the sparse walks:

* ``miss_index`` / ``miss_offset`` / ``miss_dirty`` — per-fill arrays;
* ``first_access_after_miss`` — instruction index of the first
  load/store after each miss that is *not* itself the next miss (what a
  bus-locked cache stalls);
* a CSR map from each miss to the in-fill-line re-touches inside its
  window (what the BNL policies stall on);
* ``general_walk`` — the sparse subset of accesses the general replay
  kernel (write buffers / pipelined memory / write-through traffic)
  must visit; every skipped access is a provable timing no-op;
* ``mshr_walk(k)`` — the analogous subset for the k-MSHR non-blocking
  replay kernel;
* ``inter_miss_distances`` — Eq. (8)'s ``dc_i`` sample.

The functional pass reuses :class:`repro.cache.Cache` itself rather than
a re-implementation, so the event stream is correct by construction for
every replacement/write/allocate policy the cache model supports.
"""

from __future__ import annotations

import sys
from collections.abc import Sequence
from types import SimpleNamespace

import numpy as np

from repro.cache.cache import Cache, CacheConfig
from repro.cache.stats import CacheStats
from repro.obs import tracing
from repro.trace.record import Instruction, OpKind

#: Bumped whenever the array schema or its semantics change; part of the
#: on-disk cache key (``repro.cache.events_store``), so stale cached
#: streams are invalidated automatically.
EVENT_SCHEMA_VERSION = 2

#: Array fields persisted by the on-disk cache, in schema order.
EVENT_ARRAYS = (
    "index",
    "line",
    "offset",
    "is_miss",
    "dirty_victim",
    "is_store",
    "flush_line",
    "write_through",
    "write_around",
    "size",
)


#: Bytes of one list slot, and of one boxed int as the allocator hands it
#: out (rounded up to 16 bytes).
_LIST_SLOT_BYTES = sys.getsizeof([None]) - sys.getsizeof([])
_INT_BYTES = -(-sys.getsizeof(1 << 20) // 16) * 16


class EventStream:
    """Compact functional summary of one ``(trace, geometry)`` pair."""

    def __init__(
        self,
        config: CacheConfig,
        n_instructions: int,
        index: np.ndarray,
        line: np.ndarray,
        offset: np.ndarray,
        is_miss: np.ndarray,
        dirty_victim: np.ndarray,
        is_store: np.ndarray,
        stats: CacheStats,
        flush_line: np.ndarray | None = None,
        write_through: np.ndarray | None = None,
        write_around: np.ndarray | None = None,
        size: np.ndarray | None = None,
    ) -> None:
        self.config = config
        self.n_instructions = n_instructions
        self.index = index
        self.line = line
        self.offset = offset
        self.is_miss = is_miss
        self.dirty_victim = dirty_victim
        self.is_store = is_store
        n = index.shape[0]
        # The v1 constructor predates these arrays; synthesizing the
        # write-back/write-allocate defaults keeps old callers working.
        self.flush_line = (
            flush_line
            if flush_line is not None
            else np.full(n, -1, dtype=np.int64)
        )
        self.write_through = (
            write_through
            if write_through is not None
            else np.zeros(n, dtype=bool)
        )
        self.write_around = (
            write_around
            if write_around is not None
            else np.zeros(n, dtype=bool)
        )
        self.size = size if size is not None else np.full(n, 4, dtype=np.int64)
        #: final cache statistics of the functional pass (hit ratios,
        #: fill/flush counts) — the timing-independent half of a
        #: :class:`~repro.cpu.processor.TimingResult`.
        self.stats = stats
        self._windows: FillWindows | None = None
        self._derived: _Derived | None = None
        self._array_bytes = sum(
            getattr(self, name).nbytes for name in EVENT_ARRAYS
        )

    # -- basic shape ----------------------------------------------------

    @property
    def n_accesses(self) -> int:
        """Number of loads/stores in the trace."""
        return int(self.index.shape[0])

    @property
    def n_fills(self) -> int:
        """Number of line fills (== ``stats.line_fills``)."""
        return int(self.is_miss.sum())

    @property
    def line_size(self) -> int:
        """Line size of the extracted geometry."""
        return self.config.line_size

    @property
    def nbytes(self) -> int:
        """Bytes held by the event arrays and every view built since: the
        fill windows, and :attr:`derived` with its walks."""
        total = self._array_bytes
        if self._windows is not None:
            total += self._windows.nbytes
        if self._derived is not None:
            total += self._derived.nbytes
        return total

    # -- derived per-miss structures ------------------------------------

    @property
    def windows(self) -> "FillWindows":
        """Per-miss window arrays (numpy), computed once on first use."""
        if self._windows is None:
            self._windows = FillWindows(self)
        return self._windows

    @property
    def derived(self) -> "_Derived":
        """Per-miss window structures as plain lists, plus the sparse
        walks, computed once on first use."""
        if self._derived is None:
            self._derived = _Derived(self)
        return self._derived

    def inter_miss_distances(self) -> list[int]:
        """Eq. (8)'s ``dc_i``: per miss, the instruction distance to the
        first subsequent access that engages the in-flight line (a
        re-touch of the missed line or the next miss), omitting misses
        whose fill is never engaged before the trace ends."""
        d = self.derived
        distances: list[int] = []
        for k in range(len(d.miss_index)):
            touch_lo, touch_hi = d.touch_ptr[k], d.touch_ptr[k + 1]
            first_touch = d.touch_index[touch_lo] if touch_hi > touch_lo else None
            next_miss = (
                d.miss_index[k + 1] if k + 1 < len(d.miss_index) else None
            )
            candidates = [c for c in (first_touch, next_miss) if c is not None]
            if candidates:
                distances.append(min(candidates) - d.miss_index[k])
        return distances


class GeneralWalk:
    """The access subset the general replay kernel visits, as parallel
    plain lists (position order == program order).

    Skipped accesses are hits with no memory traffic and provably no
    Table 2 window interaction — timing no-ops under every policy the
    kernel covers (see ``docs/ENGINE.md``)."""

    def __init__(
        self,
        index: list[int],
        line: list[int],
        offset: list[int],
        is_miss: list[bool],
        flush_line: list[int],
        timed_write: list[bool],
        write_around: list[bool],
        size: list[int],
    ) -> None:
        self.index = index
        self.line = line
        self.offset = offset
        self.is_miss = is_miss
        self.flush_line = flush_line
        #: the access posts a timed write (write-through or write-around)
        self.timed_write = timed_write
        self.write_around = write_around
        self.size = size

    def __len__(self) -> int:
        return len(self.index)


class MshrWalk:
    """The access subset the k-MSHR replay kernel visits."""

    def __init__(
        self,
        index: list[int],
        line: list[int],
        offset: list[int],
        is_miss: list[bool],
        flush_line: list[int],
        is_load: list[bool],
    ) -> None:
        self.index = index
        self.line = line
        self.offset = offset
        self.is_miss = is_miss
        self.flush_line = flush_line
        self.is_load = is_load

    def __len__(self) -> int:
        return len(self.index)


class FillWindows:
    """Per-miss window arrays of an :class:`EventStream` (numpy).

    Each fill's *window* runs from its miss to the next miss.  These are
    the inputs of the Table 2 stall semantics: what a bus-locked fill
    can stall (the first access after the miss) and what the BNL
    policies can stall (re-touches of the fill line inside the window).
    """

    def __init__(self, events: EventStream) -> None:
        is_miss = events.is_miss
        miss_pos = np.flatnonzero(is_miss)
        n_miss = miss_pos.shape[0]
        k = events.n_accesses

        #: instruction index / byte offset / dirty-victim flag per fill
        self.miss_index = events.index[miss_pos]
        self.miss_offset = events.offset[miss_pos]
        self.miss_dirty = events.dirty_victim[miss_pos]

        # Instruction index of the first load/store after each miss that
        # is not itself the next miss; -1 when the window is empty.
        nxt = miss_pos + 1
        safe = np.minimum(nxt, max(k - 1, 0))
        in_window = (nxt < k) & ~is_miss[safe] if k else np.zeros(0, bool)
        #: per fill: the one access a bus-locked fill can stall, or -1
        self.first_access_after_miss = np.where(in_window, events.index[safe], -1)
        self.first_after_pos = safe[in_window] if k else np.zeros(0, np.int64)

        # CSR: per miss, the subsequent accesses that re-touch the line
        # while it could still be in flight (strictly before next miss).
        ptr = np.zeros(n_miss + 1, dtype=np.int64)
        if n_miss:
            owner = np.cumsum(is_miss) - 1  # most recent miss per access
            fill_line = events.line[miss_pos][np.maximum(owner, 0)]
            touch = (~is_miss) & (owner >= 0) & (events.line == fill_line)
            np.cumsum(np.bincount(owner[touch], minlength=n_miss), out=ptr[1:])
        else:
            touch = np.zeros(k, dtype=bool)
        #: fill ``j``'s re-touches are ``touch_*[touch_ptr[j]:touch_ptr[j + 1]]``
        self.touch_ptr = ptr
        self.touch_index = events.index[touch]
        self.touch_offset = events.offset[touch]
        self.touch_mask = touch
        #: bytes held by the arrays above
        self.nbytes = sum(
            value.nbytes
            for value in vars(self).values()
            if isinstance(value, np.ndarray)
        )


class _Derived:
    """Replay-ready views of an :class:`EventStream` (plain lists, which
    the per-miss replay loop indexes far faster than numpy scalars).

    :attr:`nbytes` counts what each view holds as it is built, so the
    events memo bounds them with the stream.  The views keep the
    stream's arrays, never the stream: a reference back would put every
    stream in a cycle that only the cyclic collector frees, long after
    the memo dropped it."""

    def __init__(self, events: EventStream) -> None:
        self._arrays = SimpleNamespace(
            **{name: getattr(events, name) for name in EVENT_ARRAYS}
        )
        #: bytes held by the views built so far
        self.nbytes = 0
        # Copy the grid kernel's arrays when it built them; otherwise
        # build them without caching, so a stream that only per-point
        # kernels replay holds just the lists.
        windows = events._windows or FillWindows(events)
        if events._windows is None:
            self.nbytes += windows.first_after_pos.nbytes + windows.touch_mask.nbytes

        #: instruction index / critical offset / dirty flag per fill
        self.miss_index: list[int] = self._tolist(windows.miss_index)
        self.miss_offset: list[int] = self._tolist(windows.miss_offset)
        self.miss_dirty: list[bool] = self._tolist(windows.miss_dirty)
        self.first_access_after_miss: list[int] = self._tolist(
            windows.first_access_after_miss
        )
        self.touch_ptr: list[int] = self._tolist(windows.touch_ptr)
        self.touch_index: list[int] = self._tolist(windows.touch_index)
        self.touch_offset: list[int] = self._tolist(windows.touch_offset)
        self._first_after_pos = windows.first_after_pos
        self._touch_mask = windows.touch_mask

        self._general_walk: GeneralWalk | None = None
        self._mshr_walks: dict[int, MshrWalk] = {}
        self._owner_arrays: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None

    def _tolist(self, values: np.ndarray) -> list:
        """``values.tolist()``, counted in :attr:`nbytes`: the list and
        one object per int (CPython shares bools and ints -5..256)."""
        if values.dtype != bool:
            boxed = np.count_nonzero(values < -5) + np.count_nonzero(values > 256)
            self.nbytes += _INT_BYTES * int(boxed)
        self.nbytes += sys.getsizeof([]) + _LIST_SLOT_BYTES * values.size
        return values.tolist()

    # -- general kernel walk --------------------------------------------

    @property
    def general_walk(self) -> GeneralWalk:
        """Accesses the general replay kernel must visit.

        The union over the policies it covers: every miss, every timed
        write (write-through/write-around traffic), every in-window
        re-touch of the most recent fill line (BNL1-3/NB word waits),
        and the first access after each miss (the single access a
        bus-locked fill can stall).  Any other access is a hit with no
        memory traffic, off the fill line, generating no float ops in
        the oracle — skipping it is exact."""
        if self._general_walk is not None:
            return self._general_walk
        ev = self._arrays
        relevant = ev.is_miss | ev.write_through | ev.write_around
        relevant[self._first_after_pos] = True
        relevant |= self._touch_mask
        pos = np.flatnonzero(relevant)
        timed = (ev.write_through | ev.write_around)[pos]
        self._general_walk = GeneralWalk(
            index=self._tolist(ev.index[pos]),
            line=self._tolist(ev.line[pos]),
            offset=self._tolist(ev.offset[pos]),
            is_miss=self._tolist(ev.is_miss[pos]),
            flush_line=self._tolist(ev.flush_line[pos]),
            timed_write=self._tolist(timed),
            write_around=self._tolist(ev.write_around[pos]),
            size=self._tolist(ev.size[pos]),
        )
        return self._general_walk

    # -- MSHR kernel walk -----------------------------------------------

    def _owners(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per access: id of the last same-line fill strictly before it
        (-1 if none) and the number of fills strictly before it; per
        fill (prefix-summed): whether its line had been filled before
        (the conservative superset of MSHR-table overwrites)."""
        if self._owner_arrays is not None:
            return self._owner_arrays
        ev = self._arrays
        lines = ev.line.tolist()
        misses = ev.is_miss.tolist()
        n = len(lines)
        owner = np.empty(n, dtype=np.int64)
        fills_before = np.empty(n, dtype=np.int64)
        refill_prefix = [0]
        last_fill_of_line: dict[int, int] = {}
        fid = 0
        for p in range(n):
            ln = lines[p]
            owner[p] = last_fill_of_line.get(ln, -1)
            fills_before[p] = fid
            if misses[p]:
                refill_prefix.append(refill_prefix[-1] + (ln in last_fill_of_line))
                last_fill_of_line[ln] = fid
                fid += 1
        self._owner_arrays = (
            owner,
            fills_before,
            np.asarray(refill_prefix, dtype=np.int64),
        )
        self.nbytes += sum(array.nbytes for array in self._owner_arrays)
        return self._owner_arrays

    def mshr_walk(self, mshr_count: int) -> MshrWalk:
        """Accesses the k-MSHR replay kernel must visit.

        Every miss, plus every hit whose owning fill can still be in
        flight when the hit issues.  A hit is skippable when at least
        ``k`` *distinct-line* fills were issued between its owner and
        itself: issuing the k-th of those forced a wait for the
        earliest outstanding completion, and fill end times are
        monotone in issue order, so the owner's fill had completed by
        then.  Same-line re-fills may silently replace an MSHR entry
        without a wait, so they are excluded from the count (the
        ``refill_prefix`` correction)."""
        cached = self._mshr_walks.get(mshr_count)
        if cached is not None:
            return cached
        ev = self._arrays
        is_miss = ev.is_miss
        owner, fills_before, refill_prefix = self._owners()
        between = fills_before - owner - 1
        refills_between = refill_prefix[fills_before] - refill_prefix[
            np.minimum(owner + 1, refill_prefix.shape[0] - 1)
        ]
        may_wait = (
            (~is_miss) & (owner >= 0) & (between - refills_between < mshr_count)
        )
        pos = np.flatnonzero(is_miss | may_wait)
        walk = MshrWalk(
            index=self._tolist(ev.index[pos]),
            line=self._tolist(ev.line[pos]),
            offset=self._tolist(ev.offset[pos]),
            is_miss=self._tolist(is_miss[pos]),
            flush_line=self._tolist(ev.flush_line[pos]),
            is_load=self._tolist(~ev.is_store[pos]),
        )
        self._mshr_walks[mshr_count] = walk
        return walk


def extract_events(
    instructions: Sequence[Instruction], config: CacheConfig
) -> EventStream:
    """Run the untimed functional cache pass and build the event stream.

    One pass through :class:`~repro.cache.Cache` per call;
    :func:`repro.cache.events_store.get_or_extract` memoizes streams in
    process and persists them across runs.
    """
    cache = Cache(config)
    amap = cache.address_map
    read, write = cache.read, cache.write
    line_address, line_offset = amap.line_address, amap.offset
    alu = OpKind.ALU
    store = OpKind.STORE

    idx: list[int] = []
    line: list[int] = []
    offset: list[int] = []
    miss: list[bool] = []
    dirty: list[bool] = []
    stores: list[bool] = []
    flush_line: list[int] = []
    write_through: list[bool] = []
    write_around: list[bool] = []
    size: list[int] = []
    n = 0
    with tracing.span(
        "phase1.extract_events",
        cache_bytes=config.total_bytes,
        line_size=config.line_size,
        associativity=config.associativity,
    ) as sp:
        for i, inst in enumerate(instructions):
            n += 1
            kind = inst.kind
            if kind is alu:
                continue
            address = inst.address
            is_store = kind is store
            outcome = write(address) if is_store else read(address)
            idx.append(i)
            line.append(line_address(address))
            offset.append(line_offset(address))
            miss.append(outcome.fill_line)
            flushed = outcome.flush_line_address
            dirty.append(flushed is not None)
            flush_line.append(-1 if flushed is None else flushed)
            stores.append(is_store)
            write_through.append(outcome.write_through)
            write_around.append(outcome.write_around)
            size.append(inst.size)
        sp.set(instructions=n, accesses=len(idx), fills=sum(miss))

    return EventStream(
        config=config,
        n_instructions=n,
        index=np.asarray(idx, dtype=np.int64),
        line=np.asarray(line, dtype=np.int64),
        offset=np.asarray(offset, dtype=np.int64),
        is_miss=np.asarray(miss, dtype=bool),
        dirty_victim=np.asarray(dirty, dtype=bool),
        is_store=np.asarray(stores, dtype=bool),
        stats=cache.stats,
        flush_line=np.asarray(flush_line, dtype=np.int64),
        write_through=np.asarray(write_through, dtype=bool),
        write_around=np.asarray(write_around, dtype=bool),
        size=np.asarray(size, dtype=np.int64),
    )
