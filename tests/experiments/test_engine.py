"""Two-phase engine plumbing in the experiment layer (_phi helpers)."""

import pytest

from repro.core.stalling import StallPolicy
from repro.experiments._phi import (
    floor_phi_to_table2,
    measured_phi_map,
    measured_phi_percentages,
    spec92_event_streams,
)


class TestPhiFloor:
    """Table 2's admissible interval: ``1 <= phi <= L/D``."""

    def test_values_below_one_are_floored(self):
        assert floor_phi_to_table2(0.0) == 1.0
        assert floor_phi_to_table2(0.62) == 1.0

    def test_boundary_is_exact(self):
        assert floor_phi_to_table2(1.0) == 1.0

    def test_values_above_one_pass_through(self):
        assert floor_phi_to_table2(1.0000001) == 1.0000001
        assert floor_phi_to_table2(7.35) == 7.35

    def test_measured_map_respects_floor(self):
        phi = measured_phi_map(
            StallPolicy.BUS_NOT_LOCKED_3, 32, (2.0, 8.0), quick=True
        )
        assert all(value >= 1.0 for value in phi.values())


class TestPhase1Memoization:
    def test_figure1_streams_stay_resident(self, monkeypatch):
        """Figure 1's six full-length streams, fill windows built, fit
        the events memo: its other policies load nothing again."""
        from repro.cache import events_store
        from repro.cpu.replay import replay_fs_sweep
        from repro.experiments._phi import FULL_INSTRUCTIONS

        streams = spec92_event_streams(FULL_INSTRUCTIONS, 8192, 32, 2)
        for events in streams.values():
            replay_fs_sweep(events, (4.0, 8.0), 4, StallPolicy.BUS_LOCKED)
        assert sum(e.nbytes for e in streams.values()) <= (
            events_store._memo.budget_bytes
        )
        monkeypatch.setattr(
            events_store, "load", lambda *_: pytest.fail("expected memo hits")
        )
        again = spec92_event_streams(FULL_INSTRUCTIONS, 8192, 32, 2)
        assert all(again[name] is streams[name] for name in streams)

    def test_event_streams_cover_all_programs(self):
        streams = spec92_event_streams(2000, 8192, 32, 2)
        assert sorted(streams) == [
            "doduc", "ear", "hydro2d", "nasa7", "swm256", "wave5",
        ]
        for events in streams.values():
            assert events.n_instructions == 2000

    def test_replay_and_oracle_paths_agree(self):
        """The NB fallback and the replay fast path share accounting.

        FS through the replay path must equal FS forced through the
        step-simulator path (they are pinned equal instruction by
        instruction in tests/cpu/test_replay_equivalence.py; here we
        check the experiment-layer wiring preserves that).
        """
        from repro.cache.cache import CacheConfig
        from repro.cpu.stall_measure import average_stall_percentages
        from repro.trace.spec92 import SPEC92_PROFILES, spec92_trace

        betas = (4.0, 16.0)
        via_replay = measured_phi_percentages(
            StallPolicy.FULL_STALL, 32, 8192, 2, betas, 4, 2000
        )
        traces = {
            name: spec92_trace(name, 2000, seed=7) for name in SPEC92_PROFILES
        }
        via_oracle = average_stall_percentages(
            traces, CacheConfig(8192, 32, 2), (StallPolicy.NON_BLOCKING,),
            betas, 4,
        )
        assert len(via_replay) == len(betas)
        # NB overlaps misses, so it must sit strictly below FULL_STALL.
        for fs, nb in zip(via_replay, via_oracle[StallPolicy.NON_BLOCKING]):
            assert nb < fs

    def test_configuration_outside_replay_raises(self):
        """No oracle fallback: a bus wider than the line is refused, as
        ``replay()`` refuses it."""
        with pytest.raises(ValueError, match="replay"):
            measured_phi_percentages(
                StallPolicy.FULL_STALL, 32, 8192, 2, (8.0,), 64, 2000
            )


class TestPhiPointMemo:
    """φ points do not depend on how a caller groups them into grids:
    each point is computed with the identical float operations in the
    identical order whichever grid requests it."""

    def _measure(self, betas):
        return measured_phi_percentages(
            StallPolicy.BUS_NOT_LOCKED_1, 32, 8192, 2, betas, 4, 2000
        )

    def test_values_independent_of_request_grouping(self):
        from repro.experiments._phi import clear_caches

        clear_caches()
        together = self._measure((2.0, 8.0, 24.0))
        clear_caches()
        split = self._measure((2.0,)) + self._measure((8.0, 24.0))
        assert together == split
