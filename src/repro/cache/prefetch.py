"""Sequential prefetching cache (paper Section 3.3's latency-hiding note;
Smith 1982, Chen & Baer 1992 — the paper's references [3] and [9]).

Section 3.3 observes that "techniques such as cache line prefetching ...
can be used to hide or reduce the penalty of some read misses.  In these
cases, R will represent the memory references whose miss penalty cannot
be hidden."  This module provides that reduced-R measurement: a
next-line prefetcher (prefetch-on-miss or tagged) runs alongside the
cache, and the covered misses are exactly the reduction in effective
``R`` the tradeoff model should use.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.cache.cache import Cache, CacheConfig
from repro.cache.events import EventStream
from repro.cache.reuse import require_supported
from repro.obs import metrics
from repro.trace.record import Instruction, OpKind


class PrefetchPolicy(Enum):
    """When the next line is fetched."""

    ON_MISS = "prefetch-on-miss"
    TAGGED = "tagged"  # also on first demand hit to a prefetched line

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass
class PrefetchStats:
    """Prefetcher effectiveness counters."""

    issued: int = 0
    useful: int = 0
    demand_misses: int = 0
    covered_misses: int = 0

    @property
    def accuracy(self) -> float:
        """Useful prefetches per issued prefetch."""
        return self.useful / self.issued if self.issued else 0.0

    @property
    def coverage(self) -> float:
        """Fraction of would-be misses hidden by prefetching."""
        total = self.demand_misses + self.covered_misses
        return self.covered_misses / total if total else 0.0


class PrefetchingCache:
    """A cache with a one-block-lookahead sequential prefetcher.

    The prefetched line is installed immediately (timing idealization:
    the paper's model folds partial hiding into a scaled ``beta_m`` or a
    reduced ``R``; we measure the fully-hidden bound).  ``stats`` counts
    how many demand misses prefetching covered.
    """

    def __init__(
        self,
        config: CacheConfig,
        policy: PrefetchPolicy = PrefetchPolicy.ON_MISS,
    ) -> None:
        self.cache = Cache(config)
        self.policy = policy
        self.stats = PrefetchStats()
        #: prefetched lines not yet demand-touched (their "tag" bit).
        self._pending_tags: set[int] = set()

    def _prefetch(self, line_address: int) -> None:
        next_line = line_address + self.cache.config.line_size
        if self.cache.contains(next_line):
            return
        # Install without perturbing the demand statistics.
        before_hits = self.cache.stats.read_hits
        before_misses = self.cache.stats.read_misses
        self.cache.read(next_line)
        self.cache.stats.read_hits = before_hits
        self.cache.stats.read_misses = before_misses
        self.stats.issued += 1
        self._pending_tags.add(self.cache.address_map.line_address(next_line))

    def access(self, inst: Instruction) -> bool:
        """One load/store; returns True when it hit (incl. prefetched)."""
        if inst.kind is OpKind.ALU:
            raise ValueError("prefetching cache handles memory operations only")
        cache = self.cache
        line_address = cache.address_map.line_address(inst.address)
        was_present = cache.contains(inst.address)
        was_prefetched = line_address in self._pending_tags

        outcome = (
            cache.read(inst.address)
            if inst.kind is OpKind.LOAD
            else cache.write(inst.address)
        )

        if was_present and was_prefetched:
            # First demand touch of a prefetched line: a covered miss.
            self._pending_tags.discard(line_address)
            self.stats.useful += 1
            self.stats.covered_misses += 1
            if self.policy is PrefetchPolicy.TAGGED:
                self._prefetch(line_address)
        elif not was_present:
            self.stats.demand_misses += 1
            self._pending_tags.discard(line_address)
            self._prefetch(line_address)
        return outcome.hit

    def effective_read_bytes(self) -> float:
        """The paper's reduced ``R``: bytes of *unhidden* miss traffic.

        Demand misses still pay their fill; covered misses were hidden.
        (Prefetch traffic itself consumes bus bandwidth but not processor
        stall time — the quantity Eq. 2's R term models.)
        """
        return self.stats.demand_misses * self.cache.config.line_size


def prefetch_covered_fraction(
    events: EventStream,
    policy: PrefetchPolicy = PrefetchPolicy.ON_MISS,
) -> float:
    """Fraction of read-miss traffic a sequential prefetcher hides, from
    the trace's phase-1 event stream.

    Feed ``1 - fraction`` as an R multiplier into the Eq. 2 model to
    price prefetching in the unified hit-ratio currency.

    Prefetching changes what the cache holds, so this is still a walk
    over every reference, but a lean one: per-set LRU lists of line
    addresses (``events.line``) and the pending-tag set, under the
    :class:`PrefetchingCache` rules, which it equals exactly.  LRU,
    write-back, write-allocate geometries only (``ValueError``
    otherwise): there loads and stores move tags alike.
    """
    config = events.config
    require_supported(config)
    metrics.inc("engine.substrate.calls", substrate="prefetch")
    line_size, ways = config.line_size, config.associativity
    shift, mask = line_size.bit_length() - 1, config.n_sets - 1
    #: per set, resident line addresses, least recently used first
    sets: list[list[int]] = [[] for _ in range(config.n_sets)]
    pending: set[int] = set()
    tagged = policy is PrefetchPolicy.TAGGED
    demand_misses = covered_misses = 0
    for line in events.line.tolist():
        resident = sets[(line >> shift) & mask]
        if line in resident:
            resident.remove(line)
            resident.append(line)
            if line not in pending:
                continue
            # First demand touch of a prefetched line: a covered miss.
            pending.discard(line)
            covered_misses += 1
            if not tagged:
                continue
        else:
            if len(resident) == ways:
                del resident[0]
            resident.append(line)
            demand_misses += 1
            pending.discard(line)
        # Prefetch the next line unless it is resident.
        line += line_size
        resident = sets[(line >> shift) & mask]
        if line not in resident:
            if len(resident) == ways:
                del resident[0]
            resident.append(line)
            pending.add(line)
    total = demand_misses + covered_misses
    return covered_misses / total if total else 0.0
