"""Ablation: latency-hiding features in the hit-ratio currency.

Section 3.3 notes that prefetching shrinks the effective ``R`` (only
unhidden misses stall the processor); the related work cites victim
caches (Jouppi) and prefetching-vs-non-blocking studies (Chen & Baer).
This ablation measures both on the stand-in traces and expresses them in
the paper's common currency:

* a next-line prefetcher's coverage, converted to the hit-ratio gain it
  is worth;
* a 4-line victim buffer's direct hit-ratio gain;

then compares each against what doubling the bus is worth at the same
operating point — extending the paper's Figure 3-5 ranking to two
features it mentions but does not curve.
"""

from __future__ import annotations

from repro.cache.cache import CacheConfig
from repro.cache.prefetch import PrefetchPolicy, prefetch_covered_fraction
from repro.cache.victim import victim_hit_ratio_gain
from repro.core.bus_width import hit_ratio_gain_equivalent_to_doubling
from repro.core.params import SystemConfig
from repro.experiments._phi import spec92_events
from repro.experiments.base import ExperimentResult
from repro.trace.spec92 import SPEC92_PROFILES
from repro.util.tables import format_table

CACHE = CacheConfig(8192, 32, 2)
CONFIG = SystemConfig(4, 32, 8.0)


def run(quick: bool = False) -> ExperimentResult:
    """Prefetch coverage and victim gain per program, vs bus doubling."""
    length = 6_000 if quick else 20_000
    result = ExperimentResult(
        experiment_id="ablation_latency_hiding",
        title="Prefetching and victim caching in the hit-ratio currency",
    )
    rows = []
    for name in SPEC92_PROFILES:
        events = spec92_events(name, length, CACHE)
        coverage = prefetch_covered_fraction(events, PrefetchPolicy.TAGGED)
        victim_gain = victim_hit_ratio_gain(events, victim_lines=4)

        # Convert coverage to a hit-ratio gain: hiding a fraction c of
        # misses is raising HR by c * (1 - HR).
        hr = events.stats.hit_ratio
        prefetch_gain = coverage * (1.0 - hr)
        bus_gain = hit_ratio_gain_equivalent_to_doubling(CONFIG, hr)
        rows.append(
            (
                name,
                f"{hr:.1%}",
                f"{coverage:.0%}",
                f"{100 * prefetch_gain:.2f}%",
                f"{100 * victim_gain:.2f}%",
                f"{100 * bus_gain:.2f}%",
            )
        )
    result.tables.append(
        format_table(
            [
                "program",
                "HR",
                "prefetch coverage",
                "prefetch gain",
                "victim gain",
                "bus-doubling gain",
            ],
            rows,
        )
    )
    result.notes.append(
        "sequential programs: next-line prefetching covers most misses "
        "and out-values doubling the bus (Chen & Baer's finding that "
        "prefetching beats non-blocking, recast in hit-ratio currency)."
    )
    result.notes.append(
        "scattered programs: coverage collapses and the bus wins — the "
        "methodology exposes the workload dependence a single ranking "
        "would hide."
    )
    return result
