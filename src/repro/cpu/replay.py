"""Phase 2 of the two-phase simulation engine: timing replay.

Given an :class:`~repro.cache.events.EventStream` (the functional pass
of :func:`repro.cache.events.extract_events`), the replay engines
compute the **exact** cycle accounting that
:class:`~repro.cpu.processor.TimingSimulator` (or
:class:`~repro.cpu.nonblocking.MSHRSimulator`) would produce — by
iterating over the trace's timing-relevant accesses (typically 5-10 %
of references, under 1 % of instructions) instead of stepping every
instruction.

Why this is exact, not approximate: between timing-relevant events every
instruction retires in exactly one cycle, so time between events is pure
index arithmetic; at the events themselves (misses, copy-backs, timed
writes, and the Table 2 stalls of accesses that engage an in-flight
fill), the replay performs the *same floating-point operations in the
same order* as the step simulator.  The equivalence suite
(``tests/cpu/test_replay_equivalence.py``) pins ``TimingResult``
equality field by field across traces, geometries and ``beta_m``.

Four kernels cover the registry:

* :func:`_replay` — the fast per-fill kernel for the common case
  (write-back + write-allocate, no write buffer, plain
  :class:`~repro.memory.MainMemory`), policies FS/BL/BNL1-3/NB;
* :func:`replay_fs_sweep` — the same case over a whole ``beta_m`` grid
  at once (:func:`_sweep`): everything after a miss is an offset from
  its fill's start, so per-miss deltas for every (``beta_m``, miss)
  pair become array arithmetic.  With integer-valued ``beta_m`` every
  term is an integer and the results equal :func:`_replay` bit for
  bit; any other grid is the per-point loop;
* :func:`_replay_general` — an event-walk kernel for everything the
  single-fill-port :class:`~repro.cpu.processor.TimingSimulator` can
  express: read-bypassing write buffers (a real
  :class:`~repro.memory.write_buffer.WriteBuffer` instance runs inside
  the kernel), :class:`~repro.memory.PipelinedMemory` (Eq. 9),
  :class:`~repro.memory.dram.PageModeDram`, and
  write-through/write-around traffic;
* :func:`replay_mshr` — the k-MSHR non-blocking kernel mirroring
  :class:`~repro.cpu.nonblocking.MSHRSimulator` (including the
  load-use-distance knob).

The only configuration still outside replay is multi-issue
(``issue_rate > 1``), which goes through the step simulator via
:func:`simulate` — one call site for both engines.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.cache.cache import CacheConfig
from repro.cache.events import EventStream, extract_events
from repro.cache.write_policy import AllocatePolicy, WritePolicy
from repro.core.stalling import StallPolicy
from repro.cpu.processor import TimingResult, TimingSimulator
from repro.memory.dram import PageModeDram
from repro.memory.mainmem import FillSchedule, MainMemory
from repro.memory.pipelined import PipelinedMemory
from repro.memory.write_buffer import WriteBuffer
from repro.obs import metrics, tracing
from repro.trace.record import Instruction

#: Policies the replay engine reproduces exactly.
REPLAY_POLICIES = frozenset(
    {
        StallPolicy.FULL_STALL,
        StallPolicy.BUS_LOCKED,
        StallPolicy.BUS_NOT_LOCKED_1,
        StallPolicy.BUS_NOT_LOCKED_2,
        StallPolicy.BUS_NOT_LOCKED_3,
        StallPolicy.NON_BLOCKING,
    }
)

#: Memory models the replay engine reproduces exactly.  Exact types, not
#: isinstance: a subclass overriding the timing hooks must be vetted
#: (and listed) before replay may claim bitwise equality for it.
REPLAY_MEMORY_TYPES = (MainMemory, PipelinedMemory, PageModeDram)


def unsupported_reason(
    config: CacheConfig,
    memory: MainMemory,
    policy: StallPolicy,
    write_buffer_depth: int | None = None,
    issue_rate: float = 1.0,
) -> str | None:
    """Why :func:`replay` cannot cover this configuration (None = it can).

    The returned token labels ``engine.step_fallback.dispatches`` so
    any future coverage gap is visible in metrics snapshots.
    """
    del write_buffer_depth  # every depth (and None) is covered
    if policy not in REPLAY_POLICIES:
        return "policy"
    if issue_rate != 1.0:
        return "multi-issue"
    if type(memory) not in REPLAY_MEMORY_TYPES:
        return "memory-model"
    if config.line_size % memory.bus_width:
        return "geometry"
    return None


def supports_replay(
    config: CacheConfig,
    memory: MainMemory,
    policy: StallPolicy,
    write_buffer_depth: int | None = None,
    issue_rate: float = 1.0,
) -> bool:
    """Whether :func:`replay` reproduces this configuration exactly."""
    return (
        unsupported_reason(config, memory, policy, write_buffer_depth, issue_rate)
        is None
    )


def _is_fast_path(
    config: CacheConfig, memory: MainMemory, write_buffer_depth: int | None
) -> bool:
    """Whether the per-fill kernel applies (vs the general event walk)."""
    return (
        type(memory) is MainMemory
        and not write_buffer_depth
        and config.write_policy is WritePolicy.WRITE_BACK
        and config.allocate_policy is AllocatePolicy.WRITE_ALLOCATE
    )


def replay(
    events: EventStream,
    memory: MainMemory,
    policy: StallPolicy,
    write_buffer_depth: int | None = None,
) -> TimingResult:
    """Exact cycle accounting for one ``(policy, memory)`` point.

    Walks the sparse event structures; never touches the instruction
    stream.  Use :func:`supports_replay` first — unsupported
    configurations raise ``ValueError``.
    """
    reason = unsupported_reason(events.config, memory, policy, write_buffer_depth)
    if reason is not None:
        raise ValueError(
            f"replay does not cover (policy={policy.value}, "
            f"memory={type(memory).__name__}, config={events.config}): "
            f"{reason}; use the TimingSimulator oracle"
        )
    if _is_fast_path(events.config, memory, write_buffer_depth):
        kernel = _replay
        args = (events, memory, policy)
    else:
        kernel = _replay_general
        args = (events, memory, policy, write_buffer_depth)
    if not tracing.spans_active():
        return kernel(*args)
    with tracing.span(
        "phase2.replay",
        policy=policy.value,
        beta=memory.memory_cycle,
        fills=events.n_fills,
        kernel=kernel.__name__.lstrip("_"),
    ):
        return kernel(*args)


def _replay(
    events: EventStream, memory: MainMemory, policy: StallPolicy
) -> TimingResult:
    """The per-fill replay kernel (pre-validated inputs)."""
    beta = memory.memory_cycle
    bus_width = memory.bus_width
    n_chunks = events.line_size // bus_width
    # Mirrors MainMemory.line_fill_duration / copy_back_duration.
    fill_duration = n_chunks * beta

    d = events.derived
    miss_index = d.miss_index
    miss_offset = d.miss_offset
    miss_dirty = d.miss_dirty
    first_after = d.first_access_after_miss
    touch_ptr = d.touch_ptr
    touch_index = d.touch_index
    touch_offset = d.touch_offset

    is_fs = policy is StallPolicy.FULL_STALL
    is_bl = policy is StallPolicy.BUS_LOCKED
    is_bnl1 = policy is StallPolicy.BUS_NOT_LOCKED_1
    is_bnl2 = policy is StallPolicy.BUS_NOT_LOCKED_2
    is_nb = policy is StallPolicy.NON_BLOCKING

    time = 0.0
    bus_busy = 0.0
    read_stall = 0.0
    flush_stall = 0.0
    last_index = -1  # instruction whose processing ended at `time`
    # The in-flight fill left behind by the previous miss (partial
    # policies only): (start, end, critical_chunk) or None.
    fill: tuple[float, float, int] | None = None

    for j, index in enumerate(miss_index):
        # ---- the window of the previous fill -------------------------
        if fill is not None:
            start, end, critical = fill
            if is_bl:
                # Any load/store during the fill waits for fill end.
                engaged = first_after[j - 1]
                if engaged >= 0:
                    at = time + (engaged - last_index - 1)
                    if at < end:
                        read_stall += end - at
                        time = end + 1.0  # the engaged hit's issue slot
                        last_index = engaged
            elif is_bnl1:
                # Only a re-touch of the in-flight line waits (to end).
                lo, hi = touch_ptr[j - 1], touch_ptr[j]
                if hi > lo:
                    engaged = touch_index[lo]
                    at = time + (engaged - last_index - 1)
                    if at < end:
                        read_stall += end - at
                        time = end + 1.0
                        last_index = engaged
            else:
                # BNL2/BNL3/NB: walk the re-touches until the fill ends.
                for p in range(touch_ptr[j - 1], touch_ptr[j]):
                    engaged = touch_index[p]
                    at = time + (engaged - last_index - 1)
                    if at >= end:
                        break
                    position = (touch_offset[p] // bus_width - critical) % n_chunks
                    arrival = start + (position + 1) * beta
                    if is_bnl2:
                        if arrival <= at:
                            continue  # word already there: no stall
                        read_stall += end - at
                        time = end + 1.0
                        last_index = engaged
                        break
                    # BNL3/NB: wait just for the word itself.
                    resume = arrival if arrival > at else at
                    read_stall += resume - at
                    time = resume + 1.0
                    last_index = engaged

        # ---- the miss itself -----------------------------------------
        time += index - last_index - 1  # plain 1-cycle instructions
        if fill is not None and time < fill[1]:
            # A second miss waits for the single fill port (all
            # partial policies; FS never leaves a fill outstanding).
            read_stall += fill[1] - time
            time = fill[1]
        start = time if time > bus_busy else bus_busy
        bus_busy = start + fill_duration
        end = start + n_chunks * beta  # == FillSchedule.end_time
        if is_fs:
            resume = end
        elif is_nb:
            resume = start  # ideal NB: the miss itself retires freely
        else:
            resume = start + 1 * beta  # critical word
        stall = resume - time
        read_stall += stall if stall > 0.0 else 0.0
        time = resume if resume > time else time
        fill = None if is_fs else (start, end, miss_offset[j] // bus_width)
        if miss_dirty[j]:
            # Copy-back: the processor pays the transfer time only; the
            # bus reservation starts once the fill clears the bus.
            flush_start = time if time > bus_busy else bus_busy
            bus_busy = flush_start + fill_duration
            flush_stall += fill_duration
            time += fill_duration
        last_index = index

    # ---- the window of the last fill, then the tail of the trace -----
    if fill is not None:
        start, end, critical = fill
        j = len(miss_index)
        if is_bl:
            engaged = first_after[j - 1]
            if engaged >= 0:
                at = time + (engaged - last_index - 1)
                if at < end:
                    read_stall += end - at
                    time = end + 1.0
                    last_index = engaged
        elif is_bnl1:
            lo, hi = touch_ptr[j - 1], touch_ptr[j]
            if hi > lo:
                engaged = touch_index[lo]
                at = time + (engaged - last_index - 1)
                if at < end:
                    read_stall += end - at
                    time = end + 1.0
                    last_index = engaged
        else:
            for p in range(touch_ptr[j - 1], touch_ptr[j]):
                engaged = touch_index[p]
                at = time + (engaged - last_index - 1)
                if at >= end:
                    break
                position = (touch_offset[p] // bus_width - critical) % n_chunks
                arrival = start + (position + 1) * beta
                if is_bnl2:
                    if arrival <= at:
                        continue
                    read_stall += end - at
                    time = end + 1.0
                    last_index = engaged
                    break
                resume = arrival if arrival > at else at
                read_stall += resume - at
                time = resume + 1.0
                last_index = engaged

    time += events.n_instructions - 1 - last_index

    result = TimingResult(
        instructions=events.n_instructions,
        cycles=time,
        read_miss_stall_cycles=read_stall,
        flush_stall_cycles=flush_stall,
        write_stall_cycles=0.0,
        line_fills=events.stats.line_fills,
        memory_cycle=beta,
    )
    metrics.record_timing("replay", result)
    return result


def _replay_general(
    events: EventStream,
    memory: MainMemory,
    policy: StallPolicy,
    write_buffer_depth: int | None,
) -> TimingResult:
    """The event-walk kernel: write buffers, pipelined memory, page-mode
    DRAM and write-through/write-around traffic (pre-validated inputs).

    Visits ``events.derived.general_walk`` — misses, timed writes,
    in-window fill-line re-touches and the first access after each miss
    — performing exactly the oracle's float operations at each.  Every
    skipped access is a trafficless hit off the fill line: the oracle
    would compute ``resume == time`` and charge only the 1-cycle issue
    slot, which index arithmetic accounts for.  The write buffer is a
    real :class:`WriteBuffer` driven at the walked accesses only — the
    skipped ones cannot touch it (no post, and a conflict drain
    requires a reference that misses the cache).

    For :class:`PageModeDram` the kernel calls ``schedule_fill`` once
    per fill in program order, so the DRAM's page-hit counters (which
    the ablation reads post-run) come out identical to the oracle's.
    """
    line_size = events.line_size
    bus_width = memory.bus_width
    fill_duration = memory.line_fill_duration(line_size)
    flush_duration = memory.copy_back_duration(line_size)
    schedule_fill = memory.schedule_fill
    write_duration = memory.write_duration

    walk = events.derived.general_walk
    w_index = walk.index
    w_line = walk.line
    w_offset = walk.offset
    w_miss = walk.is_miss
    w_flush = walk.flush_line
    w_timed = walk.timed_write
    w_around = walk.write_around
    w_size = walk.size

    is_fs = policy is StallPolicy.FULL_STALL
    is_bl = policy is StallPolicy.BUS_LOCKED
    is_bnl1 = policy is StallPolicy.BUS_NOT_LOCKED_1
    is_bnl2 = policy is StallPolicy.BUS_NOT_LOCKED_2
    is_nb = policy is StallPolicy.NON_BLOCKING

    # Mirrors TimingSimulator.__init__ (a 0 depth disables the buffer,
    # a negative one raises inside WriteBuffer, like the oracle).
    wb = WriteBuffer(write_buffer_depth) if write_buffer_depth else None

    time = 0.0
    bus_busy = 0.0  # Bus.busy_until
    read_stall = 0.0
    flush_stall = 0.0
    write_stall = 0.0
    last_index = -1
    fill: FillSchedule | None = None
    fill_end = 0.0

    for p in range(len(w_index)):
        index = w_index[p]
        time += index - last_index - 1  # plain 1-cycle instructions
        line = w_line[p]
        miss = w_miss[p]
        around = w_around[p]

        # 1. Stalls imposed by an in-flight fill (Table 2 semantics,
        #    inlined from StallEngine.subsequent_access_resume).
        if fill is not None:
            if time < fill_end:
                if is_bl:
                    resume = fill_end
                elif line != fill.line_address:
                    resume = fill_end if (miss or around) else time
                elif is_bnl1:
                    resume = fill_end
                else:
                    word = fill.arrival_for_offset(w_offset[p], bus_width)
                    if is_bnl2:
                        resume = time if word <= time else fill_end
                    else:  # BNL3 / NB: wait just for the word
                        resume = word if word > time else time
                read_stall += resume - time
                time = resume
            if time >= fill_end:
                fill = None

        # 2. Read-bypass conflict: a reference missing the cache that
        #    hits a buffered dirty line forces a full drain first.
        if wb is not None and (miss or around) and wb.conflicts_with(line):
            drained = wb.flush_all(time)
            write_stall += drained - time
            time = drained

        # 4a. Line fill (mirrors TimingSimulator._start_fill).
        if miss:
            if wb is not None:
                freed = wb.drain_idle(bus_busy, time)
                if freed > bus_busy:
                    bus_busy = freed
            start = time if time > bus_busy else bus_busy  # Bus.reserve
            bus_busy = start + fill_duration
            schedule = schedule_fill(line, line_size, w_offset[p], start)
            if is_fs:
                resume = schedule.end_time
            elif is_nb:
                resume = schedule.start_time
            else:
                resume = schedule.first_arrival
            stall = resume - time
            read_stall += stall if stall > 0.0 else 0.0
            time = resume if resume > time else time
            if is_fs:
                fill = None
            else:
                fill = schedule
                fill_end = schedule.end_time
            flush_line = w_flush[p]
            if flush_line >= 0:
                if wb is not None:
                    stall = wb.post(flush_line, flush_duration, time)
                    flush_stall += stall
                    time += stall
                else:
                    flush_start = time if time > bus_busy else bus_busy
                    bus_busy = flush_start + flush_duration
                    flush_stall += flush_duration
                    time += flush_duration

        # 4b. Write-through / write-around traffic.
        if w_timed[p]:
            duration = write_duration(w_size[p])
            if wb is not None:
                stall = wb.post(line, duration, time)
                write_stall += stall
                time += stall
            else:
                wstart = time if time > bus_busy else bus_busy
                bus_busy = wstart + duration
                done = wstart + duration
                write_stall += done - time
                time = done

        # 5. The issue slot applies to everything but fills/arounds.
        if not (miss or around):
            time += 1.0
        last_index = index

    time += events.n_instructions - 1 - last_index

    result = TimingResult(
        instructions=events.n_instructions,
        cycles=time,
        read_miss_stall_cycles=read_stall,
        flush_stall_cycles=flush_stall,
        write_stall_cycles=write_stall,
        line_fills=events.stats.line_fills,
        memory_cycle=memory.memory_cycle,
    )
    metrics.record_timing("replay", result)
    if wb is not None:
        # Same lifetime counters the oracle records after a run.
        for name, value in wb.counter_snapshot().items():
            metrics.inc(f"write_buffer.{name}", value)
    return result


def replay_mshr(
    events: EventStream,
    memory: MainMemory,
    mshr_count: int = 4,
    load_use_distance: float | None = None,
) -> TimingResult:
    """Exact replay of :class:`~repro.cpu.nonblocking.MSHRSimulator`.

    Covers the MSHR model's own scope: write-back + write-allocate
    caches on plain :class:`MainMemory`.  Visits
    ``events.derived.mshr_walk(k)`` — misses plus the hits whose owning
    fill can still be outstanding — and reproduces the simulator's
    float operations (the fill table is a dict of the same
    :class:`FillSchedule` objects the oracle builds).
    """
    if mshr_count <= 0:
        raise ValueError(f"mshr_count must be positive, got {mshr_count}")
    if load_use_distance is not None and load_use_distance < 0:
        raise ValueError(
            f"load_use_distance must be non-negative, got {load_use_distance}"
        )
    config = events.config
    if (
        type(memory) is not MainMemory
        or config.write_policy is not WritePolicy.WRITE_BACK
        or config.allocate_policy is not AllocatePolicy.WRITE_ALLOCATE
        or config.line_size % memory.bus_width
    ):
        raise ValueError(
            f"replay_mshr covers write-back/write-allocate caches on plain "
            f"MainMemory only (got memory={type(memory).__name__}, "
            f"config={config})"
        )
    if not tracing.spans_active():
        return _replay_mshr(events, memory, mshr_count, load_use_distance)
    with tracing.span(
        "phase2.replay_mshr",
        mshr_count=mshr_count,
        beta=memory.memory_cycle,
        fills=events.n_fills,
    ):
        return _replay_mshr(events, memory, mshr_count, load_use_distance)


def _replay_mshr(
    events: EventStream,
    memory: MainMemory,
    mshr_count: int,
    load_use_distance: float | None,
) -> TimingResult:
    """The k-MSHR replay kernel (pre-validated inputs).

    The oracle's fill table holds :class:`FillSchedule` objects and is
    rebuilt at every access (``_expire``).  Here an entry is the
    ``(start, end, critical chunk)`` its arrivals derive from, with the
    same float operations as :meth:`MainMemory.schedule_fill`.  Fills
    share one bus, so their ends rise in issue order: keeping the table
    in issue order (a re-fill of a listed line moves to the back) puts
    the earliest end first, and expiring is popping from the front,
    needed only once time reaches that end.
    """
    line_size = events.line_size
    bus_width = memory.bus_width
    beta = memory.memory_cycle
    n_chunks = line_size // bus_width
    fill_duration = memory.line_fill_duration(line_size)
    flush_duration = memory.copy_back_duration(line_size)

    walk = events.derived.mshr_walk(mshr_count)
    w_index = walk.index
    w_line = walk.line
    w_offset = walk.offset
    w_miss = walk.is_miss
    w_flush = walk.flush_line
    w_load = walk.is_load

    time = 0.0
    bus_busy = 0.0
    read_stall = 0.0
    flush_stall = 0.0
    last_index = -1
    fills: dict[int, tuple[float, float, int]] = {}  # line -> start, end, critical
    earliest = _NEVER  # end of the oldest outstanding fill

    for p in range(len(w_index)):
        index = w_index[p]
        time += index - last_index - 1
        line = w_line[p]

        # MSHRSimulator._expire at access issue.
        if time >= earliest:
            earliest = _expire_fills(fills, time)
        fill = fills.get(line)
        if fill is not None:
            # Access to an in-flight line: wait for the word.
            start, _, critical = fill
            position = (w_offset[p] // bus_width - critical) % n_chunks
            arrival = start + (position + 1) * beta
            if arrival > time:
                read_stall += arrival - time
                time = arrival
                if time >= earliest:
                    earliest = _expire_fills(fills, time)

        if w_miss[p]:
            if len(fills) >= mshr_count:
                if earliest > time:
                    read_stall += earliest - time
                    time = earliest
                earliest = _expire_fills(fills, time)
            start = time if time > bus_busy else bus_busy  # Bus.reserve
            bus_busy = start + fill_duration
            end = start + n_chunks * beta  # FillSchedule.end_time
            # A re-fill replaces the line's entry and moves it to the
            # back; the newest fill ends last.
            if fills.pop(line, None) is not None and fills:
                earliest = next(iter(fills.values()))[1]
            fills[line] = (start, end, w_offset[p] // bus_width)
            if len(fills) == 1:
                earliest = end
            # Ideal NB: the missing access itself retires for free; a
            # finite load-use distance stalls the consumer d later.
            if load_use_distance is not None and w_load[p]:
                use_time = time + load_use_distance
                first = start + beta  # FillSchedule.first_arrival
                if first > use_time:
                    read_stall += first - use_time
                    time = first - load_use_distance
            flush_line = w_flush[p]
            if flush_line >= 0:
                flush_start = time if time > bus_busy else bus_busy
                bus_busy = flush_start + flush_duration
                flush_stall += flush_duration
                time += flush_duration
        else:
            time += 1.0
        last_index = index

    time += events.n_instructions - 1 - last_index

    result = TimingResult(
        instructions=events.n_instructions,
        cycles=time,
        read_miss_stall_cycles=read_stall,
        flush_stall_cycles=flush_stall,
        write_stall_cycles=0.0,
        line_fills=events.stats.line_fills,
        memory_cycle=memory.memory_cycle,
    )
    metrics.record_timing("replay", result)
    return result


#: ``earliest`` of an empty fill table: no time reaches it.
_NEVER = float("inf")


def _expire_fills(fills: dict[int, tuple[float, float, int]], time: float) -> float:
    """Drop the fills complete by ``time`` (``end <= time``, as
    ``MSHRSimulator._expire``); returns the end of the oldest left."""
    while fills:
        end = next(iter(fills.values()))[1]
        if end > time:
            return end
        del fills[next(iter(fills))]
    return _NEVER


#: Bound on the elements of one (βm × miss) or (βm × re-touch)
#: temporary of the grid kernel (2**16 int64s = 512 KiB): longer grids
#: run in blocks of βm rows, so memory does not grow with the grid.
_GRID_BLOCK = 1 << 16


def _integer_grid(betas: Sequence[float]) -> bool:
    """Whether every ``beta_m`` of a grid is integer-valued — the grids
    :func:`replay_fs_sweep` answers with its array kernel."""
    return all(float(beta).is_integer() for beta in betas)


def replay_fs_sweep(
    events: EventStream,
    betas: Sequence[float],
    bus_width: int,
    policy: StallPolicy = StallPolicy.FULL_STALL,
) -> tuple[TimingResult, ...]:
    """Phase 2 over a whole ``beta_m`` grid: one result per ``beta_m``.

    Any of FS, BL, BNL1-3 or NB, on the configurations :func:`_replay`
    covers.  An integer-valued grid runs the array kernel
    (:func:`_sweep`), which equals :func:`_replay` bit for bit; any
    other grid is the per-point loop, one :func:`replay` per ``beta_m``.
    Every point is recorded (``metrics.record_timing``) in grid order.
    """
    memories = [MainMemory(beta, bus_width) for beta in betas]
    probe = memories[0] if memories else MainMemory(1.0, bus_width)
    if not _is_fast_path(events.config, probe, None) or not supports_replay(
        events.config, probe, policy
    ):
        raise ValueError(
            f"replay_fs_sweep covers write-back/write-allocate caches on "
            f"plain MainMemory only (config={events.config}, "
            f"policy={policy.value})"
        )
    n_chunks = events.line_size // bus_width
    # Every intermediate time of the loop is below 4 (n + 2) (L/D) βm;
    # under 2**53 the loop's doubles hold those integers exactly.
    if not memories or not _integer_grid(betas) or (
        4 * (events.n_instructions + 2) * n_chunks * max(betas) >= 2**53
    ):
        return tuple(replay(events, memory, policy) for memory in memories)
    grid = np.array(betas, dtype=np.int64)
    with tracing.span(
        "phase2.replay",
        policy=policy.value,
        betas=len(betas),
        fills=events.n_fills,
        kernel="sweep",
    ):
        cycles, read_stall, flush_stall = _sweep(events, grid, bus_width, policy)
    results = []
    for i, memory in enumerate(memories):
        result = TimingResult(
            instructions=events.n_instructions,
            cycles=float(cycles[i]),
            read_miss_stall_cycles=float(read_stall[i]),
            flush_stall_cycles=float(flush_stall[i]),
            write_stall_cycles=0.0,
            line_fills=events.stats.line_fills,
            memory_cycle=memory.memory_cycle,
        )
        metrics.record_timing("replay", result)
        results.append(result)
    return tuple(results)


def _sweep(
    events: EventStream, grid: np.ndarray, bus_width: int, policy: StallPolicy
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cycles, read stall and flush stall of :func:`_replay` for every
    integer ``beta_m`` of ``grid`` at once (int64 arrays).

    In :func:`_replay` everything after miss *j* is an offset from its
    fill's start ``s``: the bus frees at ``s + F(1 + dirty)`` (``F`` =
    ``(L/D) beta_m``) and the window's re-touches only see ``s``-relative
    arrivals.  Write ``u`` for the processor's time minus the index of
    the last instruction it finished, relative to ``s`` and miss *j*.
    The miss leaves ``u = r + dirty * F`` (``r`` = ``F``, ``beta_m`` or 0
    under FS, the BL/BNL policies, NB), and each policy's window only
    raises it:

    * BL, BNL1: the one engaged access at gap ``g`` from the miss
      stalls to the fill's end, ``u = max(u, F + 1 - g)``;
    * BNL2: the first re-touch whose word arrives (``k beta_m``, ``k`` its
      critical-word-first position) after it issues stalls to the end;
    * BNL3, NB: each re-touch waits for its word,
      ``u = max(u, k beta_m + 1 - g)`` over the window (a re-touch that
      issues after the fill ended cannot raise it).

    The next miss then issues at ``a = u + gap - 1`` and starts after
    the fill port and the bus free: ``Δ = max(a, F(1 + dirty))``.  The
    total is the first miss's index plus the ``Δ``, plus the last
    window's ``u`` and the tail.  Every term is an integer, so int64
    arithmetic is exact; the per-fill loop's doubles hold the same
    integers exactly (the caller bounds them below 2**53).  Read stall
    is what remains of the cycles once each non-missing instruction's
    issue cycle and the copy-backs are taken out.
    """
    windows = events.windows
    n = events.n_instructions
    n_chunks = events.line_size // bus_width
    miss_index = windows.miss_index
    n_miss = miss_index.shape[0]
    fill = grid * n_chunks
    flush_stall = int(np.count_nonzero(windows.miss_dirty)) * fill
    if not n_miss:
        return np.full_like(grid, n), np.zeros_like(grid), flush_stall
    dirty = windows.miss_dirty.astype(np.int64)
    issue = miss_index[1:] - miss_index[:-1] - 1  # a - u, all but the last
    tail = n - 1 - int(miss_index[-1]) + int(miss_index[0])
    one_access = policy in (StallPolicy.BUS_LOCKED, StallPolicy.BUS_NOT_LOCKED_1)
    word_waits = policy in (
        StallPolicy.BUS_NOT_LOCKED_2,
        StallPolicy.BUS_NOT_LOCKED_3,
        StallPolicy.NON_BLOCKING,
    )

    # The windows' beta-independent inputs.
    touches = 0
    if one_access:
        if policy is StallPolicy.BUS_LOCKED:
            engaged = windows.first_access_after_miss
            has = engaged >= 0
        else:
            ptr = windows.touch_ptr
            has = ptr[1:] > ptr[:-1]
            engaged = np.full(n_miss, -1, dtype=np.int64)
            engaged[has] = windows.touch_index[ptr[:-1][has]]
        lift = 1 - (engaged - miss_index)  # u after stalling to F, minus F
    elif word_waits:
        ptr = windows.touch_ptr
        counts = ptr[1:] - ptr[:-1]
        touched = np.flatnonzero(counts)
        seg_start = ptr[:-1][touched]
        owner = np.repeat(np.arange(n_miss), counts)
        touch_gap = windows.touch_index - miss_index[owner]
        position = (
            windows.touch_offset // bus_width
            - windows.miss_offset[owner] // bus_width
        ) % n_chunks
        word = position + 1  # the word arrives word * beta_m after start
        touches = owner.shape[0]

    rows = max(1, _GRID_BLOCK // max(n_miss, touches))
    cycles = np.empty_like(grid)
    for lo in range(0, grid.shape[0], rows):
        beta = grid[lo : lo + rows, None]
        end = fill[lo : lo + rows, None]
        # u after the miss itself (and its copy-back, if any).
        if policy is StallPolicy.FULL_STALL:
            u = end + dirty * end
        elif policy is StallPolicy.NON_BLOCKING:
            u = dirty * end
        else:
            u = beta + dirty * end
        if one_access:
            u = np.where(has, np.maximum(u, end + lift), u)
        elif touches and policy is StallPolicy.BUS_NOT_LOCKED_2:
            # Skipped re-touches leave u unchanged, so every re-touch
            # compares against the miss's own u; the first stalling one
            # (segmented first-true) runs the processor to the end.
            stalls = word * beta + 1 - touch_gap > u[:, owner]
            first = np.minimum.reduceat(
                np.where(stalls, np.arange(touches), touches), seg_start, axis=1
            )
            found = first < touches
            gap = touch_gap[np.minimum(first, touches - 1)]
            u[:, touched] = np.where(found, end + 1 - gap, u[:, touched])
        elif touches:  # BNL3, NB
            u[:, touched] = np.maximum(
                u[:, touched],
                np.maximum.reduceat(word * beta + 1 - touch_gap, seg_start, axis=1),
            )
        delta = np.maximum(u[:, :-1] + issue, end + dirty[:-1] * end)
        cycles[lo : lo + rows] = delta.sum(axis=1) + u[:, -1] + tail
    read_stall = cycles - (n - n_miss) - flush_stall
    return cycles, read_stall, flush_stall


def simulate(
    instructions: Sequence[Instruction],
    config: CacheConfig,
    memory: MainMemory,
    policy: StallPolicy = StallPolicy.FULL_STALL,
    write_buffer_depth: int | None = None,
    issue_rate: float = 1.0,
    events: EventStream | None = None,
) -> TimingResult:
    """One call site for both engines.

    Uses the two-phase replay when the configuration supports it (pass
    ``events`` to reuse a memoized phase-1 extraction), otherwise falls
    back to the step-simulator oracle.
    """
    reason = unsupported_reason(
        config, memory, policy, write_buffer_depth, issue_rate
    )
    if reason is None:
        if events is None:
            events = extract_events(instructions, config)
        return replay(events, memory, policy, write_buffer_depth)
    metrics.inc("engine.step_fallback.dispatches", reason=reason)
    simulator = TimingSimulator(
        config,
        memory,
        policy=policy,
        write_buffer_depth=write_buffer_depth,
        issue_rate=issue_rate,
    )
    with tracing.span(
        "engine.step_simulate",
        policy=policy.value,
        beta=memory.memory_cycle,
        write_buffer_depth=write_buffer_depth,
    ):
        return simulator.run(instructions)
