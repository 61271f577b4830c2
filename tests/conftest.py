"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import pytest

from repro.cache import events_store, reuse_store
from repro.cache.cache import CacheConfig
from repro.cache.events_store import EVENTS_CACHE_DIR_ENV
from repro.campaign.registry import CAMPAIGN_DIR_ENV
from repro.core.params import SystemConfig
from repro.service.disk_cache import RESULT_CACHE_DIR_ENV
from repro.trace.record import ALU_OP, Instruction, OpKind


@pytest.fixture(autouse=True, scope="session")
def _isolated_events_cache(tmp_path_factory):
    """Point the on-disk event-stream cache at a per-session temp dir.

    Tests must never read (or pollute) the user's real cache: a stale
    entry there could mask an extraction bug, and test entries would
    leak into real runs.
    """
    directory = tmp_path_factory.mktemp("events-cache")
    previous = os.environ.get(EVENTS_CACHE_DIR_ENV)
    os.environ[EVENTS_CACHE_DIR_ENV] = str(directory)
    yield
    if previous is None:
        os.environ.pop(EVENTS_CACHE_DIR_ENV, None)
    else:
        os.environ[EVENTS_CACHE_DIR_ENV] = previous


@pytest.fixture(autouse=True)
def _cold_phase1_memos():
    """Start every test with empty in-process phase-1 memos.

    The event-stream and reuse-profile memos are process-global, so a
    stream one test memoized would turn the next test's extraction (or
    a server's first resolve) into a silent hit.
    """
    events_store.clear_memory()
    reuse_store.clear_memory()


@pytest.fixture(autouse=True, scope="session")
def _isolated_result_cache(tmp_path_factory):
    """Point the disk-backed result cache at a per-session temp dir.

    The cache is off unless a server configures a directory, but the
    env override wins over any configured path — redirecting it keeps a
    test server with ``disk_cache_dir`` set (and worker subprocesses,
    which inherit the environment) out of the user's real cache.
    """
    directory = tmp_path_factory.mktemp("result-cache")
    previous = os.environ.get(RESULT_CACHE_DIR_ENV)
    os.environ[RESULT_CACHE_DIR_ENV] = str(directory)
    yield
    if previous is None:
        os.environ.pop(RESULT_CACHE_DIR_ENV, None)
    else:
        os.environ[RESULT_CACHE_DIR_ENV] = previous


@pytest.fixture(autouse=True, scope="session")
def _isolated_campaign_registry(tmp_path_factory):
    """Point the campaign registry at a per-session temp dir.

    The env override beats any configured ``--registry`` /
    ``campaign_dir`` path, so even a test server configured with a
    real-looking directory stays out of ``~/.cache/repro/campaigns``.
    Tests that need a private registry monkeypatch the same variable.
    """
    directory = tmp_path_factory.mktemp("campaigns")
    previous = os.environ.get(CAMPAIGN_DIR_ENV)
    os.environ[CAMPAIGN_DIR_ENV] = str(directory)
    yield
    if previous is None:
        os.environ.pop(CAMPAIGN_DIR_ENV, None)
    else:
        os.environ[CAMPAIGN_DIR_ENV] = previous


@pytest.fixture
def paper_config() -> SystemConfig:
    """The Figure 4/5 operating point: D=4, L=32, beta_m=8, q=2."""
    return SystemConfig(
        bus_width=4, line_size=32, memory_cycle=8.0, pipeline_turnaround=2.0
    )


@pytest.fixture
def small_config() -> SystemConfig:
    """The Figure 3 operating point: D=4, L=8 (L/D = 2)."""
    return SystemConfig(
        bus_width=4, line_size=8, memory_cycle=8.0, pipeline_turnaround=2.0
    )


@pytest.fixture
def figure1_cache() -> CacheConfig:
    """The Figure 1 cache: 8K, 2-way, 32-byte lines, write-allocate."""
    return CacheConfig(total_bytes=8192, line_size=32, associativity=2)


def sequential_trace(
    n_instructions: int,
    loads_every: int = 3,
    element_size: int = 8,
    base: int = 0,
) -> list[Instruction]:
    """Deterministic sequential-load trace for hand-checkable timing."""
    trace = []
    address = base
    for i in range(n_instructions):
        if i % loads_every == 0:
            trace.append(Instruction(OpKind.LOAD, address, 4))
            address += element_size
        else:
            trace.append(ALU_OP)
    return trace


@pytest.fixture
def seq_trace() -> list[Instruction]:
    """3000-instruction sequential trace (1000 loads, 8-byte stride)."""
    return sequential_trace(3000)
