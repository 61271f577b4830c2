"""Victim cache (Jouppi reference [7])."""

import pytest

from repro.cache.cache import CacheConfig
from repro.cache.events import extract_events
from repro.cache.victim import VictimCache, victim_hit_ratio_gain
from repro.trace.record import ALU_OP, load, store
from repro.trace.spec92 import spec92_trace

# 4 sets x 2 ways x 32B lines; addresses 128 apart conflict.
CONFIG = CacheConfig(256, 32, 2)


def conflict_trace(rounds=10):
    """Three lines fighting over one 2-way set — the victim sweet spot."""
    trace = []
    for _ in range(rounds):
        trace.extend([load(0x000), load(0x080), load(0x100)])
    return trace


class TestRescues:
    def test_conflict_misses_get_rescued(self):
        victim = VictimCache(CONFIG, victim_lines=4)
        for inst in conflict_trace():
            victim.access(inst)
        assert victim.stats.rescues > 0
        assert victim.stats.effective_hit_ratio > 0.5

    def test_rescue_reports_no_fill(self):
        victim = VictimCache(CONFIG, victim_lines=4)
        victim.access(load(0x000))
        victim.access(load(0x080))
        victim.access(store(0x100))  # evicts 0x000 (dirty path via store later)
        # 0x000 was clean -> vanished; store 0x000 to dirty then evict:
        victim.access(store(0x000))  # miss; fills; evicts something dirty
        outcome = victim.access(load(0x080))
        assert outcome.line_address == 0x080

    def test_dirty_line_survives_round_trip(self):
        victim = VictimCache(CONFIG, victim_lines=4)
        victim.access(store(0x000))  # dirty in main
        victim.access(load(0x080))
        victim.access(load(0x100))  # evicts dirty 0x000 into buffer
        assert victim.holds(0x000)
        outcome = victim.access(load(0x000))  # rescue
        assert outcome.hit and not outcome.fill_line
        assert victim.main.is_dirty(0x000)

    def test_buffer_overflow_flushes_dirty(self):
        victim = VictimCache(CONFIG, victim_lines=1)
        victim.access(store(0x000))
        victim.access(load(0x080))
        victim.access(load(0x100))  # dirty 0x000 -> buffer
        victim.access(store(0x200))  # set 0 again: evicts 0x080? (clean)
        # Fill the one-slot buffer with another dirty line.
        victim.access(store(0x280))
        victim.access(load(0x300))
        flushes = victim.stats.flushes_to_memory
        assert len(victim) <= 1
        assert flushes >= 0  # overflow path exercised without error


class TestAccounting:
    def test_effective_hit_ratio_bounds(self):
        victim = VictimCache(CONFIG, victim_lines=4)
        for inst in conflict_trace():
            victim.access(inst)
        stats = victim.stats
        assert 0.0 <= stats.effective_hit_ratio <= 1.0
        assert stats.effective_hits == stats.main_hits + stats.rescues
        assert stats.rescue_ratio <= 1.0

    def test_alu_rejected(self):
        victim = VictimCache(CONFIG)
        with pytest.raises(ValueError, match="memory operations"):
            victim.access(ALU_OP)

    def test_validation(self):
        with pytest.raises(ValueError, match="victim_lines"):
            VictimCache(CONFIG, victim_lines=0)


class TestGain:
    def test_gain_positive_on_conflict_heavy_trace(self):
        events = extract_events(conflict_trace(30), CONFIG)
        gain = victim_hit_ratio_gain(events, victim_lines=4)
        assert gain > 0.2

    def test_gain_never_negative(self):
        for program in ("ear", "doduc"):
            trace = spec92_trace(program, 4000, seed=5)
            gain = victim_hit_ratio_gain(
                extract_events(trace, CacheConfig(8192, 32, 2)), victim_lines=4
            )
            assert gain >= -1e-12

    def test_bigger_buffer_never_hurts(self):
        events = extract_events(conflict_trace(30), CONFIG)
        small = victim_hit_ratio_gain(events, victim_lines=1)
        large = victim_hit_ratio_gain(events, victim_lines=8)
        assert large >= small
