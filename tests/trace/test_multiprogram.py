"""Multiprogramming interleave and cache pollution (Section 3.4)."""

import pytest

from repro.cache.cache import CacheConfig
from repro.cache.events import extract_events
from repro.trace.multiprogram import (
    disjoint_address_spaces,
    interleave,
    measure_pollution,
    rebase,
)
from repro.trace.record import ALU_OP, load
from repro.trace.spec92 import spec92_trace


class TestRebase:
    def test_memory_addresses_shift(self):
        trace = [load(0x100), ALU_OP]
        shifted = rebase(trace, 0x1000)
        assert shifted[0].address == 0x1100
        assert shifted[1] is ALU_OP

    def test_negative_offset_rejected(self):
        with pytest.raises(ValueError, match="offset"):
            rebase([load(0)], -4)

    def test_disjoint_spaces_do_not_overlap(self):
        a = [load(i * 8) for i in range(100)]
        b = [load(i * 8) for i in range(100)]
        spaced = disjoint_address_spaces([a, b], region_bytes=1 << 20)
        max_a = max(inst.address for inst in spaced[0])
        min_b = min(inst.address for inst in spaced[1])
        assert max_a < min_b


class TestInterleave:
    def test_total_length_preserved(self):
        a = [ALU_OP] * 70
        b = [ALU_OP] * 30
        merged = interleave([a, b], quantum=20)
        assert len(merged) == 100

    def test_round_robin_order(self):
        a = [load(0x0)] * 4
        b = [load(0x1000)] * 4
        merged = interleave([a, b], quantum=2)
        addresses = [inst.address for inst in merged]
        assert addresses == [0x0, 0x0, 0x1000, 0x1000, 0x0, 0x0, 0x1000, 0x1000]

    def test_short_tasks_drop_out(self):
        a = [load(0x0)] * 6
        b = [load(0x1000)] * 2
        merged = interleave([a, b], quantum=2)
        # b exhausts after the first rotation; a finishes alone.
        assert [i.address for i in merged][-4:] == [0x0] * 4

    def test_validation(self):
        with pytest.raises(ValueError, match="quantum"):
            interleave([[ALU_OP]], quantum=0)
        with pytest.raises(ValueError, match="at least one"):
            interleave([], quantum=10)


def task_streams(length, names=("ear", "doduc", "swm256")):
    """Each task's phase-1 event stream on the 8K 2-way cache."""
    return [
        extract_events(spec92_trace(name, length, seed=7), CacheConfig(8192, 32, 2))
        for name in names
    ]


class TestPollution:
    @pytest.fixture(scope="class")
    def streams(self):
        return task_streams(4000)

    def test_interleaving_inflates_miss_ratio(self, streams):
        comparison = measure_pollution(streams, 100)
        assert comparison.pollution_factor > 1.0

    def test_longer_quanta_pollute_less(self, streams):
        short = measure_pollution(streams, 50).pollution_factor
        long = measure_pollution(streams, 2000).pollution_factor
        assert long < short

    def test_single_task_has_no_pollution(self):
        comparison = measure_pollution(task_streams(4000, ("ear",)), 100)
        assert comparison.pollution_factor == pytest.approx(1.0)


class TestPollutionSweep:
    """pollution_sweep shares the solo baseline across quanta; results
    must equal independent measure_pollution calls exactly."""

    @pytest.fixture(scope="class")
    def streams(self):
        return task_streams(3000)

    def test_matches_per_quantum_measurement(self, streams):
        from repro.trace.multiprogram import pollution_sweep

        quanta = [50, 100, 2000]
        swept = pollution_sweep(streams, quanta)
        for quantum, comparison in zip(quanta, swept):
            single = measure_pollution(streams, quantum)
            assert comparison == single

    def test_empty_quanta(self, streams):
        from repro.trace.multiprogram import pollution_sweep

        assert pollution_sweep(streams, []) == []
