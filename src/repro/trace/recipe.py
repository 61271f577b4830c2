"""One recipe from a trace description to everything phase 1 needs.

A trace description is the service's validated ``trace`` object::

    {"kind": "spec92", "name": ..., "instructions": ..., "seed": ...}
    {"kind": "matmul", "n": ..., "tile": ..., "element_size": ...,
     "alu_per_reference": ...}

:func:`trace_recipe` maps one to its content fingerprint (the trace half
of every events-store key), a factory of its instructions, and a
factory of its reference arrays ``(n_instructions, index, address,
is_store, size)``.  The arrays are what the reuse engine profiles, drawn
without building a single :class:`~repro.trace.record.Instruction`, and
byte-identical to profiling the materialized trace; the instructions are
only for the stepping paths (a non-LRU geometry, the step simulator).
The service, the φ measurements and the tiling extension all describe
their traces this way, so a cold service miss takes the same array path
as the experiments (:func:`repro.cache.events_store.trace_events`).
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from typing import Any, NamedTuple

import numpy as np

from repro.trace.loops import (
    matmul_fingerprint,
    square_matmul_profile_arrays,
    square_matmul_trace,
)
from repro.trace.record import Instruction
from repro.trace.spec92 import SPEC92_PROFILES, spec92_trace, trace_fingerprint

#: ``(n_instructions, index, address, is_store, size)``.
ReferenceArrays = tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]


class TraceRecipe(NamedTuple):
    """A described trace's identity and its two lazy materializations."""

    fingerprint: str
    instructions: Callable[[], list[Instruction]]
    arrays: Callable[[], ReferenceArrays]


def trace_recipe(trace: Mapping[str, Any]) -> TraceRecipe:
    """The recipe of one trace description (``KeyError`` for an unknown
    spec92 program)."""
    if trace["kind"] == "spec92":
        name, length, seed = trace["name"], trace["instructions"], trace["seed"]
        return TraceRecipe(
            trace_fingerprint(name, length, seed),
            lambda: spec92_trace(name, length, seed=seed),
            lambda: SPEC92_PROFILES[name].profile_arrays(length, seed=seed),
        )
    shape = (
        trace["n"],
        trace["tile"],
        trace["element_size"],
        trace["alu_per_reference"],
    )
    return TraceRecipe(
        matmul_fingerprint(*shape),
        lambda: square_matmul_trace(*shape),
        lambda: square_matmul_profile_arrays(*shape),
    )
