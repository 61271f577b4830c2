"""Victim cache (Jouppi 1990, the paper's reference [7]).

A small fully-associative buffer holding lines recently evicted from the
main cache.  A main-cache miss that hits in the victim buffer swaps the
line back at on-chip cost instead of paying a memory fill — one of the
"other architectural features" the paper's related work positions
against its hit-ratio currency.  The unified methodology prices it like
everything else: the buffer's whole effect is an increase in *effective*
hit ratio, measurable with :func:`victim_hit_ratio_gain` and directly
comparable to, say, the 0.5–0.6 × (1−HR) a doubled bus is worth.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.cache.cache import AccessOutcome, Cache, CacheConfig
from repro.cache.events import EventStream
from repro.cache.reuse import pair_victims, require_supported
from repro.obs import metrics
from repro.trace.record import Instruction, OpKind


@dataclass
class VictimStats:
    """Aggregate accounting for the cache + victim buffer combination."""

    accesses: int = 0
    main_hits: int = 0
    rescues: int = 0
    memory_fills: int = 0
    flushes_to_memory: int = 0

    @property
    def effective_hits(self) -> int:
        """Main hits plus victim rescues — no memory trip either way."""
        return self.main_hits + self.rescues

    @property
    def effective_hit_ratio(self) -> float:
        """Hit ratio with rescues counted as hits."""
        return self.effective_hits / self.accesses if self.accesses else 0.0

    @property
    def rescue_ratio(self) -> float:
        """Fraction of main-cache misses the buffer rescued."""
        misses = self.accesses - self.main_hits
        return self.rescues / misses if misses else 0.0


class VictimCache:
    """A main cache backed by a small fully-associative victim buffer.

    Evicted lines (clean or dirty) enter the buffer in LRU order; a
    miss that finds its line there swaps it back without touching
    memory.  Dirty state survives the round trip.  Only lines displaced
    out of a *full* buffer reach memory (flushed if dirty).
    """

    def __init__(self, config: CacheConfig, victim_lines: int = 4) -> None:
        if victim_lines <= 0:
            raise ValueError(f"victim_lines must be positive, got {victim_lines}")
        self.main = Cache(config)
        self.victim_lines = victim_lines
        #: line address -> dirty, in LRU order (oldest first).
        self._buffer: OrderedDict[int, bool] = OrderedDict()
        self.stats = VictimStats()

    def __len__(self) -> int:
        return len(self._buffer)

    def holds(self, line_address: int) -> bool:
        """Whether the buffer currently holds ``line_address``."""
        return line_address in self._buffer

    def _stash(self, line_address: int, dirty: bool) -> int | None:
        """Put an evicted line into the buffer; returns the line address
        of a dirty overflow that must be flushed to memory, or None."""
        if line_address in self._buffer:
            dirty = dirty or self._buffer.pop(line_address)
        flushed = None
        if len(self._buffer) >= self.victim_lines:
            oldest, oldest_dirty = self._buffer.popitem(last=False)
            if oldest_dirty:
                flushed = oldest
        self._buffer[line_address] = dirty
        return flushed

    def _absorb_eviction(self, outcome: AccessOutcome, main: Cache) -> int | None:
        """Route a main-cache eviction (clean or dirty) through the buffer.

        Jouppi's buffer captures every victim; only what overflows the
        buffer (and is dirty) reaches memory, so a dirty victim the
        buffer absorbed must be uncounted from the main cache's flush
        statistics.
        """
        if outcome.victim_line_address is None:
            return None
        dirty = outcome.flush_line_address is not None
        if dirty:
            # The main cache already counted a flush; the buffer
            # intercepts it — memory only sees buffer overflows.
            main.stats.flushed_lines -= 1
        return self._stash(outcome.victim_line_address, dirty=dirty)

    def access(self, inst: Instruction) -> AccessOutcome:
        """One load/store through the combination.

        The outcome describes memory-side work only: rescues report
        ``hit=True`` without a fill; ``flush_line_address`` is a dirty
        line overflowing the buffer.
        """
        if inst.kind is OpKind.ALU:
            raise ValueError("victim cache handles memory operations only")
        main = self.main
        line_address = main.address_map.line_address(inst.address)
        self.stats.accesses += 1

        if main.contains(inst.address):
            self.stats.main_hits += 1
            outcome = (
                main.read(inst.address)
                if inst.kind is OpKind.LOAD
                else main.write(inst.address)
            )
            return outcome

        rescued = line_address in self._buffer
        was_dirty = self._buffer.pop(line_address, False) if rescued else False

        outcome = (
            main.read(inst.address)
            if inst.kind is OpKind.LOAD
            else main.write(inst.address)
        )
        flushed = self._absorb_eviction(outcome, main)

        if rescued:
            self.stats.rescues += 1
            if was_dirty:
                main.mark_dirty(inst.address)
            return AccessOutcome(
                hit=True,
                line_address=line_address,
                fill_line=False,
                flush_line_address=flushed,
            )

        self.stats.memory_fills += 1
        if flushed is not None:
            self.stats.flushes_to_memory += 1
        return AccessOutcome(
            hit=False,
            line_address=line_address,
            fill_line=outcome.fill_line,
            flush_line_address=flushed,
            write_around=outcome.write_around,
            write_through=outcome.write_through,
        )


def evicted_lines(events: EventStream) -> np.ndarray:
    """Per fill, in program order: the line the fill evicts, clean or
    dirty, or -1 when it lands in an empty way.

    The victim pairing of :func:`repro.cache.reuse.derive_events`
    (:func:`repro.cache.reuse.pair_victims`), fed from the stream's own
    arrays.  The distinct lines of a set touched after a line's final
    touch are the set's later final touches.
    """
    config = events.config
    require_supported(config)
    line, miss = events.line, events.is_miss
    n = line.shape[0]

    by_line = np.argsort(line, kind="stable")
    repeat = line[by_line][1:] == line[by_line][:-1]
    next_touch = np.full(n, n, dtype=np.int64)
    next_touch[by_line[:-1][repeat]] = by_line[1:][repeat]

    # Set-grouped order: by set, time order within each set.
    set_of = (line // config.line_size) & (config.n_sets - 1)
    order = np.argsort(set_of, kind="stable")
    counts = np.bincount(set_of, minlength=config.n_sets)
    starts = np.cumsum(counts) - counts
    finals = np.concatenate(([0], np.cumsum(next_touch[order] == n)))
    later_lines = np.empty(n, dtype=np.int64)
    later_lines[order] = (
        np.repeat(finals[starts + counts], counts) - finals[1:]
    )

    victim_touch, evicting_fill = pair_victims(
        miss,
        order,
        starts,
        counts,
        next_touch,
        later_lines,
        config.associativity,
    )
    evicted = np.full(n, -1, dtype=np.int64)
    evicted[evicting_fill] = line[victim_touch]
    return evicted[miss]


def victim_hit_ratio_gain(events: EventStream, victim_lines: int = 4) -> float:
    """Hit-ratio increase a victim buffer delivers on a trace, from the
    trace's phase-1 event stream.

    This is the quantity the unified methodology prices directly:
    compare it against
    :func:`repro.core.bus_width.hit_ratio_gain_equivalent_to_doubling`
    to decide whether the buffer out-values a wider bus.

    :class:`VictimCache` keeps its main cache's tags and LRU order
    exactly as a plain :class:`Cache` does, so its main hits are the
    stream's hits; only the buffer is stepped, over the fills: a fill
    first takes its own line out of the buffer (a rescue), then pushes
    its victim (:func:`evicted_lines`), dropping the oldest entry of a
    full buffer.  LRU, write-back, write-allocate geometries only
    (``ValueError`` otherwise).
    """
    if victim_lines <= 0:
        raise ValueError(f"victim_lines must be positive, got {victim_lines}")
    victims = evicted_lines(events).tolist()
    metrics.inc("engine.substrate.calls", substrate="victim")
    buffer: list[int] = []
    rescues = 0
    for line, victim in zip(events.line[events.is_miss].tolist(), victims):
        if line in buffer:
            buffer.remove(line)
            rescues += 1
        if victim >= 0:
            if len(buffer) >= victim_lines:
                del buffer[0]
            buffer.append(victim)
    stats = events.stats
    accesses = stats.accesses
    effective = (stats.hits + rescues) / accesses if accesses else 0.0
    return effective - stats.hit_ratio
