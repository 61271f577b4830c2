"""Property: the substrate derivations equal their stepped oracles.

The victim buffer, the sequential prefetcher, multiprogramming and the
L2 all read a trace's phase-1 event stream instead of stepping a
:class:`~repro.cache.Cache` per reference.  For any service trace
description and LRU geometry, each derivation returns exactly — float
for float — what stepping its oracle over the materialized trace
returns: :class:`VictimCache` beside a plain :class:`Cache`,
:class:`PrefetchingCache`, a :class:`Cache` over
``interleave(disjoint_address_spaces(...))``, and :class:`TwoLevelCache`.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.cache import Cache, CacheConfig
from repro.cache.events import extract_events
from repro.cache.multilevel import TwoLevelCache, stats_via_events
from repro.cache.prefetch import (
    PrefetchingCache,
    PrefetchPolicy,
    prefetch_covered_fraction,
)
from repro.cache.reuse import ReuseProfile, derive_events
from repro.cache.victim import VictimCache, evicted_lines, victim_hit_ratio_gain
from repro.cache.write_policy import AllocatePolicy, WritePolicy
from repro.trace.multiprogram import (
    MultiprogramComparison,
    disjoint_address_spaces,
    interleave,
    pollution_sweep,
)
from repro.trace.recipe import trace_recipe
from repro.trace.record import ALU_OP, OpKind, load, store
from tests.property.strategies import lru_geometries, traces


def stream(trace, config):
    """The phase-1 stream the experiments load: derived from the
    recipe's reference arrays."""
    return derive_events(ReuseProfile(*trace_recipe(trace).arrays()), config)


def memory_ops(instructions):
    return [inst for inst in instructions if inst.kind is not OpKind.ALU]


def step(cache, instructions):
    for inst in memory_ops(instructions):
        (cache.read if inst.kind is OpKind.LOAD else cache.write)(inst.address)
    return cache


def stepped_victims(instructions, config, victim_lines):
    """(victim gain, per-fill evicted line) from the stepped oracles."""
    plain, combined = Cache(config), VictimCache(config, victim_lines)
    evicted = []
    for inst in memory_ops(instructions):
        access = plain.read if inst.kind is OpKind.LOAD else plain.write
        outcome = access(inst.address)
        if outcome.fill_line:
            victim = outcome.victim_line_address
            evicted.append(-1 if victim is None else victim)
        combined.access(inst)
    gain = combined.stats.effective_hit_ratio - plain.stats.hit_ratio
    return gain, evicted


def stepped_coverage(instructions, config, policy):
    prefetcher = PrefetchingCache(config, policy)
    for inst in memory_ops(instructions):
        prefetcher.access(inst)
    return prefetcher.stats.coverage


def stepped_pollution(tasks, config, quanta):
    spaces = disjoint_address_spaces(tasks)
    solo = [step(Cache(config), space).stats for space in spaces]
    hits = sum(stats.hits for stats in solo)
    accesses = sum(stats.accesses for stats in solo)
    solo_mr = 1.0 - (hits / accesses if accesses else 0.0)
    return [
        MultiprogramComparison(
            solo_miss_ratio=solo_mr,
            interleaved_miss_ratio=step(
                Cache(config), interleave(spaces, quantum)
            ).stats.miss_ratio,
        )
        for quantum in quanta
    ]


@st.composite
def hierarchies(draw):
    """An LRU L1 and an L2 2-8x its size, with a line 1-2x the L1's."""
    l1 = draw(lru_geometries)
    total = l1.total_bytes * draw(st.sampled_from([2, 4, 8]))
    line = l1.line_size * draw(st.sampled_from([1, 2]))
    ways = draw(st.sampled_from([w for w in (1, 2, 4, 8) if line * w <= total]))
    return l1, CacheConfig(total, line, ways)


@settings(max_examples=60, deadline=None)
@given(trace=traces, config=lru_geometries, victim_lines=st.integers(1, 8))
def test_victim_gain_equals_the_stepped_victim_cache(trace, config, victim_lines):
    events = stream(trace, config)
    gain, evicted = stepped_victims(
        trace_recipe(trace).instructions(), config, victim_lines
    )
    assert evicted_lines(events).tolist() == evicted
    assert victim_hit_ratio_gain(events, victim_lines) == gain


@settings(max_examples=60, deadline=None)
@given(
    trace=traces, config=lru_geometries, policy=st.sampled_from(PrefetchPolicy)
)
def test_prefetch_coverage_equals_the_stepped_prefetcher(trace, config, policy):
    expected = stepped_coverage(trace_recipe(trace).instructions(), config, policy)
    assert prefetch_covered_fraction(stream(trace, config), policy) == expected


@settings(max_examples=60, deadline=None)
@given(
    tasks=st.lists(traces, min_size=1, max_size=3),
    config=lru_geometries,
    quanta=st.lists(st.integers(1, 300), max_size=4),
)
def test_pollution_sweep_equals_stepping_the_interleaving(tasks, config, quanta):
    expected = stepped_pollution(
        [trace_recipe(task).instructions() for task in tasks], config, quanta
    )
    streams = [stream(task, config) for task in tasks]
    assert pollution_sweep(streams, quanta) == expected


@settings(max_examples=60, deadline=None)
@given(trace=traces, hierarchy=hierarchies())
def test_l2_stats_equal_the_stepped_hierarchy(trace, hierarchy):
    l1, l2 = hierarchy
    expected = TwoLevelCache(l1, l2).run(trace_recipe(trace).instructions())
    assert stats_via_events(stream(trace, l1), l2) == expected


@settings(max_examples=40, deadline=None)
@given(
    trace=traces,
    hierarchy=hierarchies(),
    replacement=st.sampled_from(["lru", "fifo", "random", "plru"]),
    write_policy=st.sampled_from(WritePolicy),
    allocate_policy=st.sampled_from(AllocatePolicy),
)
def test_l2_stats_under_any_l1_policy(
    trace, hierarchy, replacement, write_policy, allocate_policy
):
    """Only the L2 is derived: the L1's misses, write-around stores and
    dirty victims are read off its stored stream, whatever its policy."""
    l1, l2 = hierarchy
    l1 = replace(
        l1,
        replacement=replacement,
        write_policy=write_policy,
        allocate_policy=allocate_policy,
    )
    instructions = trace_recipe(trace).instructions()
    expected = TwoLevelCache(l1, l2).run(instructions)
    assert stats_via_events(extract_events(instructions, l1), l2) == expected


# -- edge cases ------------------------------------------------------------

CONFIG = CacheConfig(256, 32, 2)
ALU_ONLY = [ALU_OP] * 40
#: Three lines, one per set: nothing is ever evicted.
NO_EVICTIONS = [load(0x00), store(0x20), load(0x40), load(0x00), ALU_OP]
#: Three lines fighting over one 2-way set.
CONFLICTS = [load(0x000), ALU_OP, store(0x080), load(0x100)] * 12


@pytest.mark.parametrize("instructions", [ALU_ONLY, NO_EVICTIONS, CONFLICTS])
def test_victim_and_prefetch_edge_cases(instructions):
    events = extract_events(instructions, CONFIG)
    for victim_lines in (1, 4):
        gain, evicted = stepped_victims(instructions, CONFIG, victim_lines)
        assert evicted_lines(events).tolist() == evicted
        assert victim_hit_ratio_gain(events, victim_lines) == gain
    for policy in PrefetchPolicy:
        expected = stepped_coverage(instructions, CONFIG, policy)
        assert prefetch_covered_fraction(events, policy) == expected


def test_no_evictions_means_no_victims():
    events = extract_events(NO_EVICTIONS, CONFIG)
    assert evicted_lines(events).tolist() == [-1, -1, -1]
    assert victim_hit_ratio_gain(events) == 0.0


@pytest.mark.parametrize(
    "tasks",
    [[ALU_ONLY], [ALU_ONLY, CONFLICTS], [CONFLICTS, NO_EVICTIONS, ALU_ONLY]],
)
@pytest.mark.parametrize("quanta", [[], [1, 3], [10**6]])
def test_pollution_edge_cases(tasks, quanta):
    """ALU-only tasks, an empty quanta list, and a quantum longer than
    every trace (each task then runs to completion in turn)."""
    streams = [extract_events(task, CONFIG) for task in tasks]
    assert pollution_sweep(streams, quanta) == stepped_pollution(
        tasks, CONFIG, quanta
    )


@pytest.mark.parametrize("instructions", [ALU_ONLY, NO_EVICTIONS, CONFLICTS])
def test_l2_edge_cases(instructions):
    l2 = CacheConfig(1024, 32, 2)
    expected = TwoLevelCache(CONFIG, l2).run(instructions)
    assert stats_via_events(extract_events(instructions, CONFIG), l2) == expected


FIFO = CacheConfig(256, 32, 2, replacement="fifo")
WRITE_AROUND = CacheConfig(
    256, 32, 2, allocate_policy=AllocatePolicy.WRITE_AROUND
)


@pytest.mark.parametrize("config", [FIFO, WRITE_AROUND])
def test_geometries_outside_the_reuse_engine_raise(config):
    events = extract_events(CONFLICTS, config)
    with pytest.raises(ValueError, match="reuse engine"):
        victim_hit_ratio_gain(events)
    with pytest.raises(ValueError, match="reuse engine"):
        prefetch_covered_fraction(events)
    with pytest.raises(ValueError, match="reuse engine"):
        pollution_sweep([events], [10])
    l1 = extract_events(CONFLICTS, CONFIG)
    l2 = CacheConfig(1024, 32, 2, config.replacement, config.write_policy,
                     config.allocate_policy)
    with pytest.raises(ValueError, match="reuse engine"):
        stats_via_events(l1, l2)


def test_tasks_must_share_one_geometry():
    streams = [
        extract_events(CONFLICTS, CONFIG),
        extract_events(CONFLICTS, CacheConfig(512, 32, 2)),
    ]
    with pytest.raises(ValueError, match="same geometry"):
        pollution_sweep(streams, [10])
