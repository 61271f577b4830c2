"""Stalling-factor measurement (paper Section 4.2, Eq. 8, Figure 1).

Two independent estimators are provided:

* :func:`measure_stall_factor` — run the full timing simulator and read
  ``phi`` off the cycle accounting (the ground truth for this codebase);
* :func:`stall_factor_eq8` — the paper's Eq. (8) for BNL1, computed from
  the distribution of instruction distances between consecutive
  references that engage an in-flight line::

      phi = (1 / Lambda_m) * sum_i max((L/D - 1) beta_m - dc_i, 0) / beta_m + 1

  where ``dc_i`` is the instruction distance from a miss to the next
  load/store that stalls on its fill.  The "+1" is the basic read-miss
  time (the critical word's ``beta_m``).

Figure 1 averages the simulator's ``phi`` (as a percentage of ``L/D``)
over the six SPEC92 stand-in programs.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence

from repro.cache.cache import Cache, CacheConfig
from repro.core.stalling import StallPolicy
from repro.cpu.processor import TimingSimulator
from repro.memory.mainmem import MainMemory
from repro.trace.record import Instruction, OpKind


def measure_stall_factor(
    instructions: Iterable[Instruction],
    cache_config: CacheConfig,
    policy: StallPolicy,
    memory_cycle: float,
    bus_width: int,
) -> float:
    """Simulated ``phi`` for one trace/policy/``beta_m`` combination.

    Routed through the two-phase engine (:mod:`repro.cpu.replay`) when
    the configuration supports it; the step simulator otherwise.  The
    two produce identical cycle counts (the replay equivalence suite
    pins this), so callers see one oracle either way.
    """
    from repro.cpu.replay import simulate

    if not isinstance(instructions, Sequence):
        instructions = list(instructions)
    return simulate(
        instructions,
        cache_config,
        MainMemory(memory_cycle, bus_width),
        policy=policy,
    ).stall_factor


def miss_distances(
    instructions: Iterable[Instruction], cache_config: CacheConfig
) -> list[int]:
    """Instruction distances feeding Eq. (8).

    For each cache miss, the number of instructions until the *first*
    subsequent load/store that engages the in-flight line — either by
    re-touching the missed line or by missing again.  A BNL1 cache stalls
    that access until the fill completes
    (``max((L/D - 1) beta_m - dc, 0)`` cycles), after which the line is
    resident and later accesses are free, so exactly one distance is
    recorded per miss.  Misses whose fill is never engaged contribute no
    distance (no overlap stall).  Functional (untimed) pass.
    """
    cache = Cache(cache_config)
    amap = cache.address_map
    distances: list[int] = []
    last_miss_index: int | None = None
    last_miss_line: int | None = None
    window_open = False
    for index, inst in enumerate(instructions):
        if inst.kind is OpKind.ALU:
            continue
        line_address = amap.line_address(inst.address)
        if inst.kind is OpKind.LOAD:
            outcome = cache.read(inst.address)
        else:
            outcome = cache.write(inst.address)
        engages = (not outcome.hit) or (line_address == last_miss_line)
        if engages and window_open and last_miss_index is not None:
            distances.append(index - last_miss_index)
            window_open = False
        if not outcome.hit:
            last_miss_index = index
            last_miss_line = line_address
            window_open = True
    return distances


def stall_factor_eq8(
    distances: Sequence[int],
    n_misses: int,
    bus_cycles_per_line: int,
    memory_cycle: float,
) -> float:
    """Eq. (8) evaluated over a miss-distance sample.

    ``distances`` are the ``dc_i`` from :func:`miss_distances`;
    ``n_misses`` is ``Lambda_m`` for the same run.  The result is clipped
    to the BNL1 bounds ``[1, L/D]``.
    """
    if n_misses <= 0:
        raise ValueError("n_misses must be positive")
    if memory_cycle < 1:
        raise ValueError("memory_cycle must be >= 1")
    fill_tail = (bus_cycles_per_line - 1) * memory_cycle
    overlap = sum(max(fill_tail - dc, 0.0) for dc in distances)
    phi = overlap / (n_misses * memory_cycle) + 1.0
    return min(float(bus_cycles_per_line), max(1.0, phi))


def average_stall_percentages(
    traces: Mapping[str, Sequence[Instruction]],
    cache_config: CacheConfig,
    policies: Sequence[StallPolicy],
    memory_cycles: Sequence[float],
    bus_width: int,
) -> dict[StallPolicy, list[float]]:
    """Figure 1's data: mean ``phi`` (% of L/D) per policy per ``beta_m``.

    Accepts any sequence type per trace (no defensive copies).  Phase 1 of
    the two-phase engine runs once per trace; every (policy,
    ``beta_m``) grid point is then a timing replay over the event
    stream, averaged across traces exactly as the paper averages its
    six SPEC92 programs.  Policies the replay cannot express fall back
    to the step simulator with identical results.
    """
    from repro.cache.events import extract_events
    from repro.cpu.replay import replay, supports_replay

    if not traces:
        raise ValueError("need at least one trace")
    bus_cycles_per_line = cache_config.line_size // bus_width
    probe = MainMemory(memory_cycles[0] if memory_cycles else 1.0, bus_width)
    any_fast = any(supports_replay(cache_config, probe, p) for p in policies)
    events = (
        {
            name: extract_events(instructions, cache_config)
            for name, instructions in traces.items()
        }
        if any_fast
        else {}
    )
    result: dict[StallPolicy, list[float]] = {}
    for policy in policies:
        row: list[float] = []
        for beta_m in memory_cycles:
            memory = MainMemory(beta_m, bus_width)
            fast = supports_replay(cache_config, memory, policy)
            total = 0.0
            for name, instructions in traces.items():
                if fast:
                    timing = replay(events[name], memory, policy)
                else:
                    timing = TimingSimulator(
                        cache_config, memory, policy=policy
                    ).run(instructions)
                total += timing.stall_percentage(bus_cycles_per_line)
            row.append(total / len(traces))
        result[policy] = row
    return result
