"""Sequential prefetching cache (Section 3.3 latency hiding)."""

import pytest

from repro.cache.cache import CacheConfig
from repro.cache.events import extract_events
from repro.cache.prefetch import (
    PrefetchingCache,
    PrefetchPolicy,
    prefetch_covered_fraction,
)
from repro.trace.record import ALU_OP, load
from repro.trace.spec92 import spec92_trace
from tests.conftest import sequential_trace

CONFIG = CacheConfig(8192, 32, 2)


class TestOnMiss:
    def test_sequential_stream_mostly_covered(self):
        prefetcher = PrefetchingCache(CONFIG, PrefetchPolicy.ON_MISS)
        for inst in sequential_trace(6000):
            if inst.kind.is_memory:
                prefetcher.access(inst)
        # On-miss prefetching alternates: covered, demand, covered, ...
        assert prefetcher.stats.coverage >= 0.4

    def test_tagged_beats_on_miss_on_sequential(self):
        """Tagged prefetching keeps the chain alive through covered hits."""
        results = {}
        for policy in PrefetchPolicy:
            prefetcher = PrefetchingCache(CONFIG, policy)
            for inst in sequential_trace(6000):
                if inst.kind.is_memory:
                    prefetcher.access(inst)
            results[policy] = prefetcher.stats.coverage
        assert results[PrefetchPolicy.TAGGED] > results[PrefetchPolicy.ON_MISS]

    def test_tagged_covers_nearly_everything_sequential(self):
        coverage = prefetch_covered_fraction(
            extract_events(sequential_trace(6000), CONFIG), PrefetchPolicy.TAGGED
        )
        assert coverage > 0.9


class TestAccounting:
    def test_effective_read_bytes_counts_demand_only(self):
        prefetcher = PrefetchingCache(CONFIG)
        for inst in sequential_trace(3000):
            if inst.kind.is_memory:
                prefetcher.access(inst)
        stats = prefetcher.stats
        assert prefetcher.effective_read_bytes() == stats.demand_misses * 32

    def test_accuracy_bounds(self):
        prefetcher = PrefetchingCache(CONFIG)
        for inst in sequential_trace(3000):
            if inst.kind.is_memory:
                prefetcher.access(inst)
        assert 0.0 <= prefetcher.stats.accuracy <= 1.0

    def test_demand_stats_not_polluted_by_prefetches(self):
        """Cache hit/miss counters reflect demand accesses only."""
        prefetcher = PrefetchingCache(CONFIG)
        demand = 0
        for inst in sequential_trace(3000):
            if inst.kind.is_memory:
                prefetcher.access(inst)
                demand += 1
        assert prefetcher.cache.stats.accesses == demand

    def test_alu_rejected(self):
        with pytest.raises(ValueError, match="memory operations"):
            PrefetchingCache(CONFIG).access(ALU_OP)


class TestWorkloadDependence:
    def test_random_workload_gets_little_coverage(self):
        trace = spec92_trace("doduc", 5000, seed=5)
        coverage = prefetch_covered_fraction(
            extract_events(trace, CONFIG), PrefetchPolicy.TAGGED
        )
        sequential = prefetch_covered_fraction(
            extract_events(sequential_trace(5000), CONFIG), PrefetchPolicy.TAGGED
        )
        assert coverage < sequential

    def test_single_access_no_crash(self):
        prefetcher = PrefetchingCache(CONFIG)
        assert prefetcher.access(load(0x40)) is False
        assert prefetcher.stats.demand_misses == 1
