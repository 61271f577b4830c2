"""Multiprogramming: interleaved tasks and context-switch effects
(paper Section 3.4).

Section 3.4 argues instruction-cache misses are negligible for a single
program but "in a multiprogramming case, a higher instruction miss ratio
is expected" and the miss portion must be added to Eq. (2).  This module
builds the workload that statement describes: several programs
round-robin on one processor with a fixed time quantum, so each switch
drags the caches through another task's footprint.

``interleave`` merges materialized traces; ``disjoint_address_spaces``
offsets each program into its own region first (separate tasks do not
share data), which is what makes the cache pollution real.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.obs import metrics
from repro.trace.record import Instruction, OpKind

if TYPE_CHECKING:
    from repro.cache.events import EventStream

#: Each task's address window (:func:`disjoint_address_spaces`).
_REGION_BYTES = 1 << 28


def rebase(instructions: list[Instruction], offset: int) -> list[Instruction]:
    """Shift every memory address by ``offset`` (a distinct task's space)."""
    if offset < 0:
        raise ValueError(f"offset must be non-negative, got {offset}")
    rebased = []
    for inst in instructions:
        if inst.kind is OpKind.ALU:
            rebased.append(inst)
        else:
            rebased.append(
                Instruction(inst.kind, inst.address + offset, inst.size)
            )
    return rebased


def disjoint_address_spaces(
    traces: list[list[Instruction]],
    region_bytes: int = _REGION_BYTES,
) -> list[list[Instruction]]:
    """Rebase each trace into its own ``region_bytes`` window."""
    if region_bytes <= 0:
        raise ValueError("region_bytes must be positive")
    return [
        rebase(trace, index * region_bytes) for index, trace in enumerate(traces)
    ]


def interleave(
    traces: list[list[Instruction]],
    quantum: int,
) -> list[Instruction]:
    """Round-robin the traces with a ``quantum``-instruction time slice.

    Each trace is consumed exactly once (the result's length is the sum
    of the inputs'); tasks that finish early simply drop out of the
    rotation — matching how a scheduler drains a mixed batch.
    """
    if quantum <= 0:
        raise ValueError(f"quantum must be positive, got {quantum}")
    if not traces:
        raise ValueError("need at least one trace")
    positions = [0] * len(traces)
    merged: list[Instruction] = []
    active = [i for i, t in enumerate(traces) if t]
    while active:
        next_active = []
        for index in active:
            trace = traces[index]
            start = positions[index]
            end = min(start + quantum, len(trace))
            merged.extend(trace[start:end])
            positions[index] = end
            if end < len(trace):
                next_active.append(index)
        active = next_active
    return merged


@dataclass(frozen=True)
class MultiprogramComparison:
    """Miss ratios of the same work run solo versus time-sliced."""

    solo_miss_ratio: float
    interleaved_miss_ratio: float

    @property
    def pollution_factor(self) -> float:
        """How much multiprogramming inflates the miss ratio."""
        if self.solo_miss_ratio == 0:
            return float("inf") if self.interleaved_miss_ratio > 0 else 1.0
        return self.interleaved_miss_ratio / self.solo_miss_ratio


def pollution_sweep(
    streams: list[EventStream], quanta: list[int]
) -> list[MultiprogramComparison]:
    """:func:`measure_pollution` across several quanta, from each task's
    phase-1 event stream (all of one geometry).

    :func:`disjoint_address_spaces` offsets task ``t`` by
    ``t * 2**28``, a multiple of the line size, which only relabels
    sets: each task's solo run on a private, fresh cache is its stream's
    own ``stats``.  Each quantum's shared run is one new reference
    stream — every task's references in :func:`interleave` order,
    rebased — whose exact stats :func:`repro.cache.reuse.derive_events`
    derives from its reuse profile.  LRU, write-back, write-allocate
    geometries only (``ValueError`` otherwise).
    """
    from repro.cache.reuse import ReuseProfile, derive_events, require_supported

    if not streams:
        raise ValueError("need at least one trace")
    config = streams[0].config
    if any(events.config != config for events in streams):
        raise ValueError("every task's stream must have the same geometry")
    require_supported(config)
    metrics.inc("engine.substrate.calls", substrate="multiprogram")
    solo_hits = sum(events.stats.hits for events in streams)
    solo_accesses = sum(events.stats.accesses for events in streams)
    solo_mr = 1.0 - (solo_hits / solo_accesses if solo_accesses else 0.0)

    n_instructions = sum(events.n_instructions for events in streams)
    task = np.repeat(
        np.arange(len(streams)), [events.n_accesses for events in streams]
    )
    index = np.concatenate([events.index for events in streams])
    address = np.concatenate(
        [
            events.line + events.offset + t * _REGION_BYTES
            for t, events in enumerate(streams)
        ]
    )
    is_store = np.concatenate([events.is_store for events in streams])
    size = np.concatenate([events.size for events in streams])

    comparisons = []
    for quantum in quanta:
        if quantum <= 0:
            raise ValueError(f"quantum must be positive, got {quantum}")
        # interleave() runs instruction i of task t in round i // quantum,
        # the tasks in order within a round.  The profile's index only
        # labels the references; the stats do not read it.
        order = np.lexsort((index, task, index // quantum))
        profile = ReuseProfile(
            n_instructions,
            np.arange(order.shape[0]),
            address[order],
            is_store[order],
            size[order],
        )
        comparisons.append(
            MultiprogramComparison(
                solo_miss_ratio=solo_mr,
                interleaved_miss_ratio=derive_events(
                    profile, config
                ).stats.miss_ratio,
            )
        )
    return comparisons


def measure_pollution(
    streams: list[EventStream], quantum: int
) -> MultiprogramComparison:
    """Miss-ratio inflation caused by time slicing the tasks together.

    The solo baseline runs each task on a private (fresh) cache; the
    interleaved run shares one cache across quanta.  The gap is the
    Section 3.4 effect.
    """
    return pollution_sweep(streams, [quantum])[0]
