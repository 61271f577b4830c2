"""The capacity probe's headline in ``benchmarks/bench_service.py``."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))

import bench_service  # noqa: E402

LADDER = bench_service.CAPACITY_LADDER


@pytest.mark.parametrize(
    ("passes", "expected"),
    [
        ((True, True, True, True), LADDER[3]),
        ((True, False, True, True), LADDER[0]),
        ((True, True, False, True), LADDER[1]),
        ((False, True, True, True), 0.0),
    ],
)
def test_max_sustained_is_the_end_of_the_passing_prefix(
    monkeypatch, passes, expected
):
    outcome = dict(zip(LADDER, passes))

    def rung(port, offered_rps, seed):
        return {
            "offered_rps": offered_rps,
            "achieved_rps": offered_rps,
            "p99_ms": 1.0,
            "shed": 0,
            "errors": 0,
            "sustained": outcome[offered_rps],
        }

    monkeypatch.setattr(bench_service, "_warm_capacity_keys", lambda port: None)
    monkeypatch.setattr(bench_service, "run_capacity_rung", rung)
    entry = bench_service.run_capacity(port=0, workers=2)
    assert entry["max_sustained_rps"] == expected
    assert [point["offered_rps"] for point in entry["curve"]] == list(LADDER)
