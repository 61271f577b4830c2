"""Two-level cache hierarchy.

The paper models one on-chip cache in front of memory; by 1994, boards
already carried L2 SRAM.  The methodology still applies — Section 4.5's
mean-memory-delay argument only needs the *average* miss penalty — so
this module provides the substrate to demonstrate it: an L1/L2 pair with
hit/miss simulation, plus :func:`effective_memory_cycle`, the constant
``beta_m`` a single-level model must use so Eq. (2) reproduces the
two-level system's delay (the same move the page-mode DRAM ablation
makes for row locality).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cache.cache import Cache, CacheConfig
from repro.cache.reuse import ReuseProfile, derive_events, require_supported
from repro.obs import metrics
from repro.trace.record import Instruction, OpKind


@dataclass(frozen=True)
class MultilevelStats:
    """Aggregate hit/miss accounting across both levels."""

    l1_accesses: int
    l1_misses: int
    l2_accesses: int
    l2_misses: int

    @property
    def l1_miss_ratio(self) -> float:
        """Local L1 miss ratio."""
        return self.l1_misses / self.l1_accesses if self.l1_accesses else 0.0

    @property
    def l2_local_miss_ratio(self) -> float:
        """L2 misses per L2 access (the 'local' ratio)."""
        return self.l2_misses / self.l2_accesses if self.l2_accesses else 0.0

    @property
    def global_miss_ratio(self) -> float:
        """References missing *both* levels, per L1 access."""
        return self.l2_misses / self.l1_accesses if self.l1_accesses else 0.0


class TwoLevelCache:
    """An L1 backed by a (same-or-larger-line) L2.

    L1 misses probe the L2; L2 hits fill the L1 at ``l2_hit_cycles`` per
    L1-line-sized transfer, L2 misses go to memory.  Dirty L1 victims
    write back into the L2 (which marks them dirty); dirty L2 victims
    are the only traffic reaching memory besides fills.
    """

    def __init__(
        self,
        l1_config: CacheConfig,
        l2_config: CacheConfig,
        l2_hit_cycles: float = 2.0,
    ) -> None:
        if l2_config.line_size < l1_config.line_size:
            raise ValueError(
                "L2 line must be at least the L1 line "
                f"({l2_config.line_size} < {l1_config.line_size})"
            )
        if l2_config.total_bytes < l1_config.total_bytes:
            raise ValueError("L2 must be at least as large as L1")
        if l2_hit_cycles < 1:
            raise ValueError(f"l2_hit_cycles must be >= 1, got {l2_hit_cycles}")
        self.l1 = Cache(l1_config)
        self.l2 = Cache(l2_config)
        self.l2_hit_cycles = float(l2_hit_cycles)
        self._l2_hits = 0

    def access(self, inst: Instruction) -> bool:
        """One load/store; returns True when L1 hit (no L2 probe)."""
        if inst.kind is OpKind.ALU:
            raise ValueError("two-level cache handles memory operations only")
        l1 = self.l1
        if inst.kind is OpKind.LOAD:
            outcome = l1.read(inst.address)
        else:
            outcome = l1.write(inst.address)
        if outcome.hit:
            return True

        # L1 dirty victim writes back into the L2.
        if outcome.flush_line_address is not None:
            self.l2.write(outcome.flush_line_address)

        # The L1 fill probes the L2.
        l2_outcome = self.l2.read(inst.address)
        if l2_outcome.hit:
            self._l2_hits += 1
        return False

    def run(self, instructions: list[Instruction]) -> MultilevelStats:
        """Execute a stream; returns the combined statistics."""
        for inst in instructions:
            if inst.kind.is_memory:
                self.access(inst)
        return self.stats()

    def stats(self) -> MultilevelStats:
        """Current counters as a snapshot."""
        l1 = self.l1.stats
        l2 = self.l2.stats
        return MultilevelStats(
            l1_accesses=l1.accesses,
            l1_misses=l1.misses,
            l2_accesses=l2.read_hits + l2.read_misses,
            l2_misses=l2.read_misses,
        )


def effective_memory_cycle(
    stats: MultilevelStats,
    l2_hit_cycles: float,
    memory_cycle: float,
) -> float:
    """The constant ``beta_m`` a single-level Eq. (2) model must use.

    Each L1 miss pays ``l2_hit_cycles`` per chunk on an L2 hit and
    ``memory_cycle`` per chunk on an L2 miss (the L2-hit leg is folded
    into the miss path, as an L2 lookup precedes the memory trip), so
    the average per-chunk cost weights the two by the local L2 ratio::

        beta_eff = (1 - m2) * l2_hit + m2 * (l2_hit + memory_cycle)
    """
    if stats.l1_misses == 0:
        return l2_hit_cycles
    m2 = stats.l2_local_miss_ratio
    return (1.0 - m2) * l2_hit_cycles + m2 * (l2_hit_cycles + memory_cycle)


def single_level_equivalent(
    instructions: list[Instruction],
    l1_config: CacheConfig,
    l2_config: CacheConfig,
    l2_hit_cycles: float,
    memory_cycle: float,
) -> tuple[MultilevelStats, float]:
    """Run the hierarchy and return (stats, equivalent beta_m).

    Feeding the returned ``beta_m`` and the L1 characterization into
    Eq. (2) reproduces the hierarchy's mean memory delay — the
    Section 4.5 argument extended one level down.
    """
    hierarchy = TwoLevelCache(l1_config, l2_config, l2_hit_cycles)
    stats = hierarchy.run(instructions)
    return stats, effective_memory_cycle(stats, l2_hit_cycles, memory_cycle)


def stats_via_events(events, l2_config: CacheConfig) -> MultilevelStats:
    """:class:`MultilevelStats` from an L1 event stream, with no stepping.

    The L2 never sees the raw reference stream — only the L1's miss and
    copy-back traffic, which the phase-1 event stream
    (:class:`repro.cache.events.EventStream`) records in full: per L1
    miss, a write of the dirty victim line (where ``flush_line >= 0``)
    followed by the read that probes the L2 (the fill, or a write-around
    store), the exact sequence :meth:`TwoLevelCache.access` issues.  That far shorter stream's
    reuse profile derives the L2's exact stats
    (:func:`repro.cache.reuse.derive_events`), so the hierarchy equals
    :meth:`TwoLevelCache.run` bit for bit while the L1 side comes from
    phase 1.  The L2 must be LRU, write-back, write-allocate
    (``ValueError`` otherwise); the L1 stream may come from any
    geometry, since only its recorded misses and victims are read.
    """
    if l2_config.line_size < events.config.line_size:
        raise ValueError(
            "L2 line must be at least the L1 line "
            f"({l2_config.line_size} < {events.config.line_size})"
        )
    if l2_config.total_bytes < events.config.total_bytes:
        raise ValueError("L2 must be at least as large as L1")
    require_supported(l2_config)
    metrics.inc("engine.substrate.calls", substrate="l2")
    # A write-around store miss fills nothing but still probes the L2.
    fills = np.flatnonzero(events.is_miss | events.write_around)
    victim = events.flush_line[fills]
    # Each dirty victim's write goes in just before its fill's read.
    before = np.flatnonzero(victim >= 0)
    address = np.insert(
        events.line[fills] + events.offset[fills], before, victim[before]
    )
    is_store = np.insert(np.zeros(fills.shape[0], dtype=bool), before, True)
    n = address.shape[0]
    profile = ReuseProfile(
        n,
        np.arange(n, dtype=np.int64),
        address,
        is_store,
        np.full(n, events.config.line_size, dtype=np.int64),
    )
    l1 = events.stats
    l2 = derive_events(profile, l2_config).stats
    return MultilevelStats(
        l1_accesses=l1.accesses,
        l1_misses=l1.misses,
        l2_accesses=l2.read_hits + l2.read_misses,
        l2_misses=l2.read_misses,
    )


def single_level_equivalent_from_events(
    events,
    l2_config: CacheConfig,
    l2_hit_cycles: float,
    memory_cycle: float,
) -> tuple[MultilevelStats, float]:
    """:func:`single_level_equivalent` driven by an L1 event stream."""
    if l2_hit_cycles < 1:
        raise ValueError(f"l2_hit_cycles must be >= 1, got {l2_hit_cycles}")
    stats = stats_via_events(events, l2_config)
    return stats, effective_memory_cycle(stats, l2_hit_cycles, memory_cycle)
