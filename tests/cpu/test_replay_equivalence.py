"""Replay engine vs. step simulator: exact cycle-count agreement.

The two-phase engine's contract is *exactness*, not approximation: for
every supported configuration the replayed :class:`TimingResult` must
equal the :class:`TimingSimulator` oracle field by field — cycles,
read-miss stalls, flush stalls, write stalls, fill counts — with ``==``
on floats.

Coverage: all six policies (FS/BL/BNL1/BNL2/BNL3/NB), write-buffer
depths, pipelined memory, page-mode DRAM, write-through/write-around
caches, the k-MSHR non-blocking kernel, the βm-grid kernel
(``replay_fs_sweep``, pinned against the per-fill kernel), all six
SPEC92 stand-in traces, several geometries (including line == bus
width and a tiny thrashing cache), integer and dyadic-fraction
``beta_m``, plus Hypothesis property tests over random traces and
geometries.
"""

import importlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import CacheConfig
from repro.cache.events import extract_events
from repro.cache.write_policy import AllocatePolicy, WritePolicy
from repro.core.stalling import StallPolicy
from repro.cpu.nonblocking import MSHRSimulator
from repro.cpu.processor import TimingSimulator
from repro.cpu.replay import (
    REPLAY_POLICIES,
    _replay,
    replay,
    replay_fs_sweep,
    replay_mshr,
    simulate,
    supports_replay,
    unsupported_reason,
)
from repro.cpu.stall_measure import miss_distances
from repro.memory.dram import PageModeDram
from repro.memory.mainmem import MainMemory
from repro.memory.pipelined import PipelinedMemory
from repro.trace.record import ALU_OP, Instruction, OpKind, load, store
from repro.trace.spec92 import SPEC92_PROFILES, spec92_trace

POLICIES = sorted(REPLAY_POLICIES, key=lambda p: p.value)

# The package re-exports the ``replay`` function under the module's name.
replay_module = importlib.import_module("repro.cpu.replay")

GEOMETRIES = [
    CacheConfig(8192, 32, 2),     # the paper's Figure 1 cache
    CacheConfig(1024, 16, 1),     # direct-mapped, short lines
    CacheConfig(512, 64, 4),      # tiny + long lines: heavy thrashing
    CacheConfig(4096, 32, 4),
]


def assert_results_equal(oracle, fast):
    assert fast.instructions == oracle.instructions
    assert fast.line_fills == oracle.line_fills
    assert fast.cycles == oracle.cycles
    assert fast.read_miss_stall_cycles == oracle.read_miss_stall_cycles
    assert fast.flush_stall_cycles == oracle.flush_stall_cycles
    assert fast.write_stall_cycles == oracle.write_stall_cycles
    assert fast.memory_cycle == oracle.memory_cycle


def run_both(trace, config, policy, beta, bus_width=4):
    oracle = TimingSimulator(
        config, MainMemory(beta, bus_width), policy=policy
    ).run(trace)
    fast = replay(
        extract_events(trace, config), MainMemory(beta, bus_width), policy
    )
    return oracle, fast


class TestSpec92Equivalence:
    """Exact agreement on the actual Figure 1 workloads."""

    @pytest.fixture(scope="class")
    def traces(self):
        return {
            name: profile.trace(4000, seed=7)
            for name, profile in SPEC92_PROFILES.items()
        }

    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
    @pytest.mark.parametrize("beta", [2.0, 8.0, 48.0])
    def test_all_traces(self, traces, policy, beta):
        config = CacheConfig(8192, 32, 2)
        for name, trace in traces.items():
            events = extract_events(trace, config)
            for bus_width in (4, 8):
                memory = MainMemory(beta, bus_width)
                oracle = TimingSimulator(config, memory, policy=policy).run(trace)
                fast = replay(events, memory, policy)
                assert_results_equal(oracle, fast), (name, bus_width)

    @pytest.mark.parametrize("config", GEOMETRIES, ids=str)
    def test_geometries(self, traces, config):
        trace = traces["doduc"]
        for policy in POLICIES:
            for beta in (1.0, 7.0, 16.0):
                oracle, fast = run_both(trace, config, policy, beta)
                assert_results_equal(oracle, fast)

    def test_dyadic_fractional_beta(self, traces):
        """Non-integer (but binary-fraction) memory cycles stay exact."""
        config = CacheConfig(1024, 32, 2)
        for beta in (1.5, 2.25, 6.5):
            for policy in POLICIES:
                oracle, fast = run_both(traces["ear"], config, policy, beta)
                assert_results_equal(oracle, fast)


class TestEdgeCases:
    def test_empty_window_back_to_back_misses(self):
        trace = [load(i * 64) for i in range(64)]  # every access misses
        config = CacheConfig(512, 32, 1)
        for policy in POLICIES:
            oracle, fast = run_both(trace, config, policy, 8.0)
            assert_results_equal(oracle, fast)

    def test_line_equals_bus_width(self):
        """One-chunk fills: no partial-fill window at all."""
        trace = spec92_trace("wave5", 2000, seed=1)
        config = CacheConfig(1024, 4, 2)
        for policy in POLICIES:
            oracle, fast = run_both(trace, config, policy, 5.0)
            assert_results_equal(oracle, fast)

    def test_no_memory_ops(self):
        trace = [ALU_OP] * 100
        oracle, fast = run_both(trace, CacheConfig(8192, 32, 2),
                                StallPolicy.BUS_LOCKED, 4.0)
        assert_results_equal(oracle, fast)
        assert fast.cycles == 100.0

    def test_trace_ends_inside_fill_window(self):
        """Re-touches after the final miss still stall correctly."""
        trace = [load(0), load(4), load(8), load(28)]
        config = CacheConfig(512, 32, 1)
        for policy in POLICIES:
            oracle, fast = run_both(trace, config, policy, 16.0)
            assert_results_equal(oracle, fast)

    def test_dirty_victims_and_stores(self):
        """Write-allocate store misses + copy-backs, tiny cache."""
        trace = []
        for i in range(300):
            trace.append(store((i * 32) % 1024))
            trace.append(ALU_OP)
            trace.append(load(((i + 3) * 32) % 1024))
        config = CacheConfig(256, 32, 2)
        for policy in POLICIES:
            for beta in (2.0, 24.0):
                oracle, fast = run_both(trace, config, policy, beta)
                assert_results_equal(oracle, fast)

    def test_simulate_covers_former_fallback_configs(self):
        """NB / write-buffer / pipelined configs now replay exactly."""
        trace = spec92_trace("ear", 500, seed=3)
        config = CacheConfig(8192, 32, 2)
        memory = MainMemory(8.0, 4)
        cases = [
            dict(policy=StallPolicy.NON_BLOCKING),
            dict(policy=StallPolicy.FULL_STALL, write_buffer_depth=4),
            dict(policy=StallPolicy.BUS_NOT_LOCKED_2, write_buffer_depth=1),
        ]
        for case in cases:
            assert supports_replay(config, memory, **case)
            result = simulate(trace, config, memory, **case)
            oracle = TimingSimulator(config, memory, **case).run(trace)
            assert_results_equal(oracle, result)
        pipelined = PipelinedMemory(8.0, 4, 2.0)
        assert supports_replay(config, pipelined, StallPolicy.FULL_STALL)
        result = simulate(trace, config, pipelined, StallPolicy.FULL_STALL)
        oracle = TimingSimulator(
            config, pipelined, policy=StallPolicy.FULL_STALL
        ).run(trace)
        assert_results_equal(oracle, result)

    def test_simulate_falls_back_for_multi_issue(self):
        """Multi-issue remains the one step-simulator configuration."""
        trace = spec92_trace("ear", 500, seed=3)
        config = CacheConfig(8192, 32, 2)
        memory = MainMemory(8.0, 4)
        assert not supports_replay(
            config, memory, StallPolicy.FULL_STALL, issue_rate=2.0
        )
        assert (
            unsupported_reason(
                config, memory, StallPolicy.FULL_STALL, issue_rate=2.0
            )
            == "multi-issue"
        )
        result = simulate(
            trace, config, memory, StallPolicy.FULL_STALL, issue_rate=2.0
        )
        oracle = TimingSimulator(
            config, memory, policy=StallPolicy.FULL_STALL, issue_rate=2.0
        ).run(trace)
        assert result.cycles == oracle.cycles

    def test_unsupported_reason_labels(self):
        config = CacheConfig(8192, 32, 2)
        memory = MainMemory(8.0, 4)
        assert unsupported_reason(config, memory, StallPolicy.FULL_STALL) is None

        class TweakedMemory(MainMemory):
            """Subclasses may override timing hooks — not vetted."""

        assert (
            unsupported_reason(
                config, TweakedMemory(8.0, 4), StallPolicy.FULL_STALL
            )
            == "memory-model"
        )
        assert (
            unsupported_reason(
                config, MainMemory(8.0, 64), StallPolicy.FULL_STALL
            )
            == "geometry"
        )

    def test_replay_rejects_unsupported(self):
        events = extract_events([load(0)], CacheConfig(8192, 32, 2))

        class TweakedMemory(MainMemory):
            pass

        with pytest.raises(ValueError, match="replay does not cover"):
            replay(events, TweakedMemory(8.0, 4), StallPolicy.FULL_STALL)


class TestWriteBufferEquivalence:
    """Read-bypassing write-buffer configs replay exactly."""

    TRACES = ("swm256", "hydro2d")
    GEOMETRIES = (CacheConfig(8192, 32, 2), CacheConfig(1024, 16, 1))
    BETAS = (2.0, 8.0, 24.0)

    @pytest.mark.parametrize("depth", [1, 4, 8])
    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
    def test_depths(self, depth, policy):
        for name in self.TRACES:
            trace = spec92_trace(name, 2500, seed=7)
            for config in self.GEOMETRIES:
                events = extract_events(trace, config)
                for beta in self.BETAS:
                    memory = MainMemory(beta, 4)
                    oracle = TimingSimulator(
                        config, memory, policy=policy, write_buffer_depth=depth
                    ).run(trace)
                    fast = replay(
                        events, memory, policy, write_buffer_depth=depth
                    )
                    assert_results_equal(oracle, fast)

    def test_depth_zero_means_no_buffer(self):
        trace = spec92_trace("ear", 1500, seed=7)
        config = CacheConfig(8192, 32, 2)
        events = extract_events(trace, config)
        memory = MainMemory(8.0, 4)
        plain = replay(events, memory, StallPolicy.FULL_STALL)
        zero = replay(
            events, memory, StallPolicy.FULL_STALL, write_buffer_depth=0
        )
        assert_results_equal(plain, zero)


class TestPipelinedMemoryEquivalence:
    """Eq. (9) pipelined memory replays exactly."""

    TRACES = ("nasa7", "doduc")
    GEOMETRIES = (CacheConfig(8192, 32, 2), CacheConfig(512, 64, 4))
    BETAS = (4.0, 8.0, 16.0)

    @pytest.mark.parametrize("turnaround", [1.0, 2.0])
    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
    def test_turnarounds(self, turnaround, policy):
        for name in self.TRACES:
            trace = spec92_trace(name, 2500, seed=7)
            for config in self.GEOMETRIES:
                events = extract_events(trace, config)
                for beta in self.BETAS:
                    memory = PipelinedMemory(beta, 4, turnaround=turnaround)
                    oracle = TimingSimulator(
                        config, memory, policy=policy
                    ).run(trace)
                    fast = replay(events, memory, policy)
                    assert_results_equal(oracle, fast)

    def test_pipelined_with_write_buffer(self):
        trace = spec92_trace("swm256", 2000, seed=7)
        config = CacheConfig(8192, 32, 2)
        events = extract_events(trace, config)
        memory = PipelinedMemory(8.0, 4, turnaround=2.0)
        for depth in (1, 4):
            oracle = TimingSimulator(
                config,
                memory,
                policy=StallPolicy.BUS_NOT_LOCKED_3,
                write_buffer_depth=depth,
            ).run(trace)
            fast = replay(
                events,
                memory,
                StallPolicy.BUS_NOT_LOCKED_3,
                write_buffer_depth=depth,
            )
            assert_results_equal(oracle, fast)


class TestWritePolicyEquivalence:
    """Write-through and write-around traffic replays exactly."""

    CONFIGS = [
        CacheConfig(8192, 32, 2, write_policy=WritePolicy.WRITE_THROUGH),
        CacheConfig(
            8192,
            32,
            2,
            write_policy=WritePolicy.WRITE_THROUGH,
            allocate_policy=AllocatePolicy.WRITE_AROUND,
        ),
        CacheConfig(8192, 32, 2, allocate_policy=AllocatePolicy.WRITE_AROUND),
        CacheConfig(
            1024,
            16,
            1,
            write_policy=WritePolicy.WRITE_THROUGH,
            allocate_policy=AllocatePolicy.WRITE_AROUND,
        ),
    ]
    BETAS = (2.0, 8.0, 24.0)

    @pytest.mark.parametrize("config", CONFIGS, ids=str)
    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
    def test_policies(self, config, policy):
        for name in ("swm256", "ear"):
            trace = spec92_trace(name, 2500, seed=7)
            events = extract_events(trace, config)
            for beta in self.BETAS:
                memory = MainMemory(beta, 4)
                oracle = TimingSimulator(config, memory, policy=policy).run(
                    trace
                )
                fast = replay(events, memory, policy)
                assert_results_equal(oracle, fast)

    def test_write_through_with_buffer(self):
        config = CacheConfig(
            8192, 32, 2, write_policy=WritePolicy.WRITE_THROUGH
        )
        trace = spec92_trace("hydro2d", 2500, seed=7)
        events = extract_events(trace, config)
        memory = MainMemory(8.0, 4)
        for depth in (1, 4, 8):
            for policy in POLICIES:
                oracle = TimingSimulator(
                    config, memory, policy=policy, write_buffer_depth=depth
                ).run(trace)
                fast = replay(events, memory, policy, write_buffer_depth=depth)
                assert_results_equal(oracle, fast)


class TestPageModeDramEquivalence:
    """The stateful DRAM model replays exactly, page counters included."""

    @pytest.mark.parametrize(
        "policy",
        [StallPolicy.FULL_STALL, StallPolicy.BUS_NOT_LOCKED_3],
        ids=lambda p: p.value,
    )
    def test_timing_and_page_counters(self, policy):
        config = CacheConfig(8192, 32, 2)
        for name in ("swm256", "doduc"):
            trace = spec92_trace(name, 2500, seed=7)
            events = extract_events(trace, config)
            oracle_dram = PageModeDram(4.0, 12.0, 2048, 4)
            oracle = TimingSimulator(config, oracle_dram, policy=policy).run(
                trace
            )
            replay_dram = PageModeDram(4.0, 12.0, 2048, 4)
            fast = replay(events, replay_dram, policy)
            assert_results_equal(oracle, fast)
            assert replay_dram.page_hits == oracle_dram.page_hits
            assert replay_dram.page_misses == oracle_dram.page_misses


class TestMshrReplayEquivalence:
    """replay_mshr vs the MSHRSimulator oracle."""

    @pytest.mark.parametrize("mshr_count", [1, 2, 4, 8])
    @pytest.mark.parametrize("distance", [None, 0.0, 8.0, 64.0])
    def test_counts_and_distances(self, mshr_count, distance):
        for name in ("swm256", "ear"):
            trace = spec92_trace(name, 2500, seed=7)
            for config in (CacheConfig(8192, 32, 2), CacheConfig(1024, 16, 1)):
                events = extract_events(trace, config)
                for beta in (2.0, 8.0, 16.0):
                    memory = MainMemory(beta, 4)
                    oracle = MSHRSimulator(
                        config,
                        memory,
                        mshr_count=mshr_count,
                        load_use_distance=distance,
                    ).run(trace)
                    fast = replay_mshr(
                        events,
                        memory,
                        mshr_count=mshr_count,
                        load_use_distance=distance,
                    )
                    assert_results_equal(oracle, fast)

    @pytest.mark.parametrize("mshr_count", [1, 2, 4, 8])
    @pytest.mark.parametrize("distance", [None, 0.0, 8.0])
    def test_fractional_beta(self, mshr_count, distance):
        """Non-integer memory cycles, dyadic or not, stay exact."""
        trace = spec92_trace("hydro2d", 2500, seed=7)
        config = CacheConfig(1024, 32, 2)
        events = extract_events(trace, config)
        for beta in (4.001, 8.5, 12.3):
            memory = MainMemory(beta, 4)
            oracle = MSHRSimulator(
                config,
                memory,
                mshr_count=mshr_count,
                load_use_distance=distance,
            ).run(trace)
            fast = replay_mshr(
                events,
                memory,
                mshr_count=mshr_count,
                load_use_distance=distance,
            )
            assert_results_equal(oracle, fast)

    def test_rejects_invalid(self):
        events = extract_events([load(0)], CacheConfig(8192, 32, 2))
        with pytest.raises(ValueError, match="mshr_count"):
            replay_mshr(events, MainMemory(8.0, 4), mshr_count=0)
        with pytest.raises(ValueError, match="load_use_distance"):
            replay_mshr(events, MainMemory(8.0, 4), load_use_distance=-1.0)
        with pytest.raises(ValueError, match="replay_mshr covers"):
            replay_mshr(events, PipelinedMemory(8.0, 4, 2.0))

    @settings(max_examples=60, deadline=None)
    @given(
        stream=st.deferred(lambda: instruction_streams()),
        mshr_count=st.sampled_from([1, 2, 4]),
        distance=st.sampled_from([None, 0.0, 4.0, 32.0]),
        beta=st.sampled_from([1.0, 2.0, 8.0, 12.5]),
        config=st.sampled_from(
            [CacheConfig(256, 16, 1), CacheConfig(512, 32, 2)]
        ),
    )
    def test_mshr_property(self, stream, mshr_count, distance, beta, config):
        memory = MainMemory(beta, 4)
        oracle = MSHRSimulator(
            config, memory, mshr_count=mshr_count, load_use_distance=distance
        ).run(stream)
        fast = replay_mshr(
            extract_events(stream, config),
            memory,
            mshr_count=mshr_count,
            load_use_distance=distance,
        )
        assert_results_equal(oracle, fast)


class TestFsSweep:
    """The vectorized FS beta sweep equals the per-point kernel."""

    def test_integer_grid(self):
        trace = spec92_trace("wave5", 2500, seed=7)
        config = CacheConfig(8192, 32, 2)
        events = extract_events(trace, config)
        betas = (2.0, 8.0, 16.0, 48.0)
        swept = replay_fs_sweep(events, betas, 4)
        for beta, result in zip(betas, swept):
            oracle = TimingSimulator(
                config, MainMemory(beta, 4), policy=StallPolicy.FULL_STALL
            ).run(trace)
            assert_results_equal(oracle, result)

    def test_fractional_grid_falls_back_exactly(self):
        trace = spec92_trace("ear", 1500, seed=7)
        config = CacheConfig(1024, 32, 2)
        events = extract_events(trace, config)
        betas = (1.5, 6.5, 8.0)
        swept = replay_fs_sweep(events, betas, 4)
        for beta, result in zip(betas, swept):
            oracle = TimingSimulator(
                config, MainMemory(beta, 4), policy=StallPolicy.FULL_STALL
            ).run(trace)
            assert_results_equal(oracle, result)

    def test_rejects_non_writeback(self):
        config = CacheConfig(
            8192, 32, 2, write_policy=WritePolicy.WRITE_THROUGH
        )
        events = extract_events([load(0)], config)
        with pytest.raises(ValueError, match="replay_fs_sweep"):
            replay_fs_sweep(events, (8.0,), 4)


class TestGridSweep:
    """The βm-grid kernel equals the per-fill kernel for every policy."""

    @pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
    def test_spec92_figure1_grid(self, policy):
        config = CacheConfig(8192, 32, 2)
        betas = (1.0, 2.0, 4.0, 8.0, 12.0, 16.0, 24.0, 32.0, 40.0, 48.0)
        for name in SPEC92_PROFILES:
            events = extract_events(spec92_trace(name, 3000, seed=7), config)
            swept = replay_fs_sweep(events, betas, 4, policy)
            for beta, result in zip(betas, swept):
                assert result == _replay(events, MainMemory(beta, 4), policy)

    def test_fractional_grid_falls_back_point_by_point(self, monkeypatch):
        events = extract_events(
            spec92_trace("ear", 1500, seed=7), CacheConfig(1024, 32, 2)
        )
        betas = (2.0, 4.5, 8.0)
        visited = []

        def per_point(events, memory, policy):
            visited.append(memory.memory_cycle)
            return _replay(events, memory, policy)

        monkeypatch.setattr(replay_module, "replay", per_point)
        swept = replay_fs_sweep(
            events, betas, 4, StallPolicy.BUS_NOT_LOCKED_3
        )
        assert visited == list(betas)
        assert swept == tuple(
            _replay(events, MainMemory(beta, 4), StallPolicy.BUS_NOT_LOCKED_3)
            for beta in betas
        )

    def test_empty_grid_and_empty_stream(self):
        events = extract_events([ALU_OP] * 10, CacheConfig(8192, 32, 2))
        assert replay_fs_sweep(events, (), 4) == ()
        for policy in POLICIES:
            (result,) = replay_fs_sweep(events, (3.0,), 4, policy)
            assert result == _replay(events, MainMemory(3.0, 4), policy)
            assert result.cycles == 10.0

    def test_records_every_point(self):
        from repro.obs import metrics

        events = extract_events(
            spec92_trace("nasa7", 1500, seed=7), CacheConfig(1024, 32, 2)
        )
        registry = metrics.enable_metrics()
        try:
            replay_fs_sweep(events, (2.0, 8.0, 16.0), 4, StallPolicy.BUS_LOCKED)
        finally:
            metrics.disable_metrics()
        assert registry.counter("engine.replay.calls") == 3


class TestReusePhase1Equivalence:
    """End-to-end over the reuse engine: profile -> derived EventStream
    -> replay must equal stepping the cache *and* the timing oracle.

    The phase-1 equivalence (derived stream == extracted stream) is
    pinned array-by-array in ``tests/cache/test_reuse.py``; here the
    derived stream feeds the actual phase-2 replay so a representation
    mismatch anywhere in the chain would surface as a cycle-count
    difference.
    """

    GEOMETRIES = (
        CacheConfig(8192, 32, 2),
        CacheConfig(1024, 16, 1),
        CacheConfig(512, 64, 4),
    )

    @pytest.mark.parametrize("name", ["ear", "swm256", "doduc"])
    def test_replay_over_derived_stream(self, name):
        from repro.cache.reuse import build_profile, derive_events

        trace = spec92_trace(name, 2500, seed=7)
        profile = build_profile(trace)
        for config in self.GEOMETRIES:
            derived = derive_events(profile, config)
            for policy in (StallPolicy.FULL_STALL, StallPolicy.BUS_NOT_LOCKED_3):
                for beta in (2.0, 8.0):
                    memory = MainMemory(beta, 4)
                    oracle = TimingSimulator(
                        config, memory, policy=policy
                    ).run(trace)
                    fast = replay(derived, memory, policy)
                    assert_results_equal(oracle, fast)

    def test_derived_stream_through_simulate(self):
        from repro.cache.reuse import build_profile, derive_events

        trace = spec92_trace("wave5", 2000, seed=7)
        config = CacheConfig(8192, 32, 2)
        derived = derive_events(build_profile(trace), config)
        memory = MainMemory(8.0, 4)
        result = simulate(
            (), config, memory, policy=StallPolicy.FULL_STALL, events=derived
        )
        oracle = TimingSimulator(
            config, memory, policy=StallPolicy.FULL_STALL
        ).run(trace)
        assert_results_equal(oracle, result)

    def test_derived_stream_mshr_replay(self):
        from repro.cache.reuse import build_profile, derive_events

        trace = spec92_trace("ear", 2000, seed=7)
        config = CacheConfig(1024, 16, 1)
        derived = derive_events(build_profile(trace), config)
        memory = MainMemory(8.0, 4)
        oracle = MSHRSimulator(config, memory, mshr_count=4).run(trace)
        fast = replay_mshr(derived, memory, mshr_count=4)
        assert_results_equal(oracle, fast)


class TestEventStreamDerived:
    def test_inter_miss_distances_match_legacy(self):
        """EventStream's Eq. (8) distances == stall_measure.miss_distances."""
        config = CacheConfig(8192, 32, 2)
        for name in ("nasa7", "ear", "doduc"):
            trace = spec92_trace(name, 3000, seed=7)
            events = extract_events(trace, config)
            assert events.inter_miss_distances() == miss_distances(trace, config)

    def test_fill_count_matches_functional_stats(self):
        trace = spec92_trace("swm256", 2000, seed=5)
        events = extract_events(trace, CacheConfig(1024, 32, 2))
        assert events.n_fills == events.stats.line_fills
        assert events.n_instructions == len(trace)


@st.composite
def instruction_streams(draw):
    n = draw(st.integers(min_value=1, max_value=250))
    stream = []
    for _ in range(n):
        roll = draw(st.integers(min_value=0, max_value=9))
        if roll < 5:
            stream.append(ALU_OP)
        else:
            kind = OpKind.STORE if roll >= 8 else OpKind.LOAD
            address = draw(st.integers(min_value=0, max_value=0x7FF)) * 4
            stream.append(Instruction(kind, address, 4))
    return stream


@settings(max_examples=120, deadline=None)
@given(
    stream=instruction_streams(),
    policy=st.sampled_from(POLICIES),
    beta=st.sampled_from([1.0, 1.5, 2.0, 3.0, 5.0, 8.0, 12.5, 32.0]),
    config=st.sampled_from(
        [
            CacheConfig(256, 16, 1),
            CacheConfig(256, 32, 2),
            CacheConfig(512, 32, 2),
            CacheConfig(1024, 64, 4),
        ]
    ),
)
def test_replay_equals_oracle_property(stream, policy, beta, config):
    oracle = TimingSimulator(config, MainMemory(beta, 4), policy=policy).run(stream)
    fast = replay(extract_events(stream, config), MainMemory(beta, 4), policy)
    assert_results_equal(oracle, fast)


@st.composite
def integer_grids(draw):
    """1-6 integer-valued memory cycles, always including beta_m = 1."""
    grid = draw(st.lists(st.integers(min_value=1, max_value=60), max_size=5))
    grid.insert(draw(st.integers(min_value=0, max_value=len(grid))), 1)
    return [float(beta) for beta in grid]


@settings(max_examples=150, deadline=None)
@given(
    stream=instruction_streams(),
    policy=st.sampled_from(POLICIES),
    betas=integer_grids(),
    bus_width=st.sampled_from([4, 8]),
    chunks=st.sampled_from([1, 2, 4, 8, 16]),
    geometry=st.sampled_from([(512, 1), (1024, 2), (2048, 2)]),
)
def test_grid_sweep_equals_replay_property(
    stream, policy, betas, bus_width, chunks, geometry
):
    """Grid == per-fill kernel over random streams, L/D 1-16, D 4 or 8."""
    total_bytes, associativity = geometry
    config = CacheConfig(total_bytes, bus_width * chunks, associativity)
    events = extract_events(stream, config)
    swept = replay_fs_sweep(events, betas, bus_width, policy)
    assert swept == tuple(
        _replay(events, MainMemory(beta, bus_width), policy) for beta in betas
    )
