"""Declared schemas for the observability artifacts.

Chrome trace files (``--trace``), metrics snapshots (``--metrics``), run
manifests (``<id>.meta.json``), profiles, the bench scoreboards, access
logs, span spools and the service's response envelopes are declared as
:mod:`repro.util.schema` tables, so the reproduction needs no
``jsonschema``.  Validators raise :class:`SchemaError` with a
JSON-path-style message on the first violation; CI runs them over the
smoke run's artifacts via ``python -m repro.obs.validate``.
"""

from __future__ import annotations

from typing import Any

from repro.obs.manifest import MANIFEST_SCHEMA
from repro.obs.metrics import SNAPSHOT_SCHEMA, eq2_sum_matches
from repro.obs.profile import PROFILE_SCHEMA
from repro.util.schema import (
    OMIT,
    Check,
    Invariant,
    SchemaError,
    anything,
    array,
    boolean,
    choice,
    const,
    either,
    integer,
    mapping,
    nullable,
    number,
    obj,
    require,
    string,
    union,
)

#: Committed engine scoreboard (``BENCH_engine.json``).  ``/2`` added
#: ``all_quick_s`` and the per-engine ``dispatch`` section, and made
#: ``dispatch.step_calls == 0`` a validity requirement: every registry
#: experiment must go through the replay engine.  ``/3`` made the
#: environment provenance (python version, cpu count, platform — all
#: hostname-free) required, so ``bench_history`` entries built from a
#: scoreboard are attributable to the machine that produced them.
#: ``/4`` added the reuse-engine phase-1 headlines (``phase1_reuse_s``,
#: ``phase1_derive_marginal_s``) and the ``dispatch.phase1`` section,
#: with ``phase1.step_calls == 0`` a validity requirement: the registry
#: sweep is LRU-only, so every cold extraction must come from the reuse
#: engine, never from stepping ``Cache``.  ``/5`` added the
#: ``phase_breakdown`` section (a span-attributed self-time table from a
#: profiled ``--all --quick`` pass; see :mod:`repro.obs.profile`) and
#: ``profiler_overhead`` (full figure1 with the sampler on vs off — the
#: 5% budget is enforced by the bench script, not the validator, so a
#: noisy machine cannot make a committed scoreboard retroactively
#: invalid).
BENCH_ENGINE_SCHEMA = "repro.bench.engine/5"

#: Committed service scoreboard (``BENCH_service.json``), written by
#: ``benchmarks/bench_service.py``.  Validity requires the batching and
#: engine invariants, not particular timings: zero step-simulator
#: dispatches, one phase-1 extraction per distinct (trace, geometry)
#: key, and a batch-coalescing ratio above 1 at 16 concurrent clients.
#: ``/2`` added required environment provenance (as for the engine
#: scoreboard) and the per-level client-side view (``client.retries``
#: and client-measured latency percentiles).  ``/3`` added the
#: ``phase_breakdown`` section: a span-attributed self-time table from a
#: profiled load window (see :mod:`repro.obs.profile`).  ``/4`` added
#: the ``capacity`` headline: open-loop (Poisson-arrival)
#: latency-under-load curves and the max sustained request rate with
#: p99 ≤ the stated SLO, measured for a single-process server and for
#: the sharded fleet.  The validator checks structure and internal
#: consistency, *not* that the fleet beats the single process — on a
#: one-core CI box it legitimately may not.
BENCH_SERVICE_SCHEMA = "repro.bench.service/4"

#: One line of the serving layer's JSONL access log (see
#: :mod:`repro.obs.access_log`).  ``/2`` added the optional
#: ``trace_id``/``span_id`` fields so log↔trace joins work from either
#: side; ``/1`` records (without them) still validate.
ACCESS_LOG_SCHEMA = "repro.obs.access_log/2"

#: Access-log schema tags accepted on read (back-compat).
ACCESS_LOG_SCHEMAS = ("repro.obs.access_log/1", ACCESS_LOG_SCHEMA)

#: One line of a per-process span spool (see :mod:`repro.obs.span_spool`).
SPANS_SCHEMA = "repro.obs.spans/1"

#: One appended entry of ``results/bench_history.jsonl`` (see
#: :mod:`repro.obs.bench_history`).
BENCH_HISTORY_SCHEMA = "repro.obs.bench_history/1"

#: Envelope of every successful ``repro.service`` JSON response.
SERVICE_RESPONSE_SCHEMA = "repro.service.response/1"

#: Envelope of every ``repro.service`` error response.
SERVICE_ERROR_SCHEMA = "repro.service.error/1"

#: Envelope of the ``/v1/stats`` response.
SERVICE_STATS_SCHEMA = "repro.service.stats/1"

#: Header line of the ``/v1/sweep`` streaming (JSONL) response.
SERVICE_SWEEP_SCHEMA = "repro.service.sweep/1"


def _open(fields: dict[str, Any], *after: Invariant) -> Check:
    """An artifact object: the declared fields, any other keys allowed."""
    return obj(fields, rest=anything, after=after)


def _ordered(low: str, high: str) -> Invariant:
    def invariant(entry: dict[str, Any], path: str) -> None:
        require(entry[low] <= entry[high], path, f"{low} must be <= {high}")

    return invariant


def _no_step_calls(reason: str) -> Invariant:
    def invariant(dispatch: dict[str, Any], path: str) -> None:
        require(
            dispatch["step_calls"] == 0, f"{path}.step_calls", f"must be 0: {reason}"
        )

    return invariant


_NUMBER = number()
_NON_NEGATIVE = number(ge=0)
_POSITIVE = number(gt=0)
_NAME = string()
_TEXT = string(r"(?s).*", "must be a string")
_TRACE_ID = string(r"[0-9a-f]{32}", "must be 32 lowercase hex characters")
_SPAN_ID = string(r"[0-9a-f]{16}", "must be 16 lowercase hex characters")
_OBJECT = mapping()

_SNAPSHOT = {
    "counters": mapping(_NUMBER),
    "histograms": mapping(
        _open(
            dict.fromkeys(("count", "sum", "min", "max"), _NUMBER),
            _ordered("min", "max"),
        )
    ),
}

#: The environment provenance of a bench scoreboard: python version,
#: logical cpu count and platform string (all hostname-free); ``git_sha``
#: is present but may be null off-repo.
_BENCH_PROVENANCE = _open(
    {
        "python": _NAME,
        "platform": _NAME,
        "cpu_count": integer(ge=1),
        "git_sha": nullable(_NAME),
    }
)

#: A ``{phase: {samples, self_s, fraction}}`` self-time table.
_PHASES = mapping(
    _open(
        {
            **dict.fromkeys(("samples", "self_s"), _NON_NEGATIVE),
            "fraction": number(ge=0, le=1.0),
        }
    ),
    min_len=1,
)

#: A bench scoreboard's profiled workload, sampling parameters and
#: span-attributed self-time table.
_PHASE_BREAKDOWN = _open(
    {
        "source": _NAME,
        "profile_id": _NAME,
        "hz": integer(ge=1),
        "duration_s": _NUMBER,
        "phases": _PHASES,
    }
)


_SPAN_TIMES = _open({"ts": _NUMBER, "dur": _NON_NEGATIVE})


def _complete_event_times(event: dict[str, Any], path: str) -> None:
    """A complete ("X") event carries its start and duration."""
    if event["ph"] == "X":
        _SPAN_TIMES(event, path)


_CHROME_TRACE = _open(
    {
        "traceEvents": array(
            _open(
                {
                    "name": _TEXT,
                    "ph": string(r"(?s).", "must be a 1-char phase code"),
                    "pid": _NUMBER,
                    "tid": _NUMBER,
                    "args": (_OBJECT, OMIT),
                },
                _complete_event_times,
            )
        )
    }
)

_SPAN_RECORD = _open(
    {
        "schema": const(SPANS_SCHEMA),
        "seq": integer(ge=0),
        "wall_end": _NUMBER,
        "name": _NAME,
        "ph": const("X"),
        "ts": _NUMBER,
        "dur": _NON_NEGATIVE,
        "pid": _NUMBER,
        "tid": _NUMBER,
        "args": _open(
            {
                "trace_id": (_TRACE_ID, OMIT),
                "span_id": (_SPAN_ID, OMIT),
                "parent_span_id": (_SPAN_ID, OMIT),
            }
        ),
    }
)

_METRICS = _open({"schema": const(SNAPSHOT_SCHEMA), **_SNAPSHOT})

_HEAP_SITE = _open({"site": _NAME, "size_kib": _NUMBER, "count": _NUMBER})
_HEAP = _open({"traced_kib": _NUMBER, "peak_kib": _NUMBER, "top": array(_HEAP_SITE)})

_PROFILE = _open(
    {
        "schema": const(PROFILE_SCHEMA),
        "id": _NAME,
        "hz": integer(ge=1, le=1000),
        "duration_s": _NON_NEGATIVE,
        "samples": _NON_NEGATIVE,
        "thread_samples": _NON_NEGATIVE,
        "threads": mapping(_NUMBER),
        "folded": array(
            string(
                r"(?s).+ [0-9]*[1-9][0-9]*",
                "must be a collapsed stack: 'thread;frame;... count'",
            )
        ),
        "phases": _PHASES,
        "heap": (nullable(_HEAP), None),
        "provenance": _open({"python": _NAME, "created_at": _NAME}),
    }
)

_BENCH_ENGINE = _open(
    {
        "schema": const(BENCH_ENGINE_SCHEMA),
        "benchmarks": obj(
            dict.fromkeys(
                (
                    "phase1_extract_60k_s",
                    "phase1_reuse_s",
                    "phase1_derive_marginal_s",
                    "phase2_replay_point_s",
                    "step_simulator_point_s",
                    "figure1_quick_s",
                    "all_quick_s",
                ),
                _NON_NEGATIVE,
            ),
            rest=_NON_NEGATIVE,
        ),
        "speedup_replay_vs_step": _NUMBER,
        "dispatch": _open(
            {
                "replay_calls": _POSITIVE,
                "step_calls": _NUMBER,
                "step_fallback_reasons": mapping(_NUMBER),
                "phase1": _open(
                    {
                        "reuse_calls": _POSITIVE,
                        "step_calls": _NUMBER,
                        "step_reasons": mapping(_NUMBER),
                    },
                    _no_step_calls(
                        "the registry sweep is LRU-only, yet a phase-1 "
                        "extraction stepped Cache (reasons in "
                        "$.dispatch.phase1.step_reasons)"
                    ),
                ),
            },
            _no_step_calls(
                "a registry experiment fell back to the step simulator "
                "(reasons in $.dispatch.step_fallback_reasons)"
            ),
        ),
        "metrics": _open(_SNAPSHOT),
        "phase_breakdown": _PHASE_BREAKDOWN,
        "profiler_overhead": _open(
            {
                **dict.fromkeys(("off_s", "on_s", "ratio"), _POSITIVE),
                "hz": integer(ge=1),
            }
        ),
        "provenance": _BENCH_PROVENANCE,
    }
)


def _levels_keyed_by_clients(levels: dict[str, Any], path: str) -> None:
    """Each level is keyed by its client count, checked before its stats."""
    for key, level in levels.items():
        level_path = f"{path}[{key!r}]"
        require(
            key.isdecimal() and _OBJECT(level, level_path).get("clients") == int(key),
            f"{level_path}.clients",
            f"must equal the level key ({key})",
        )
        _LEVEL(level, level_path)


def _sixteen_clients_coalesce(levels: dict[str, Any], path: str) -> None:
    require(
        levels["16"]["coalescing_ratio"] > 1.0,
        f"{path}['16'].coalescing_ratio",
        "must be > 1: 16 concurrent clients over shared (trace, geometry) "
        "keys must coalesce into shared batch groups",
    )


def _one_extraction_per_key(coalescing: dict[str, Any], path: str) -> None:
    extractions = coalescing["phase1_extractions"]
    keys = coalescing["distinct_keys"]
    require(
        extractions == keys,
        path,
        f"phase-1 must run once per key: {extractions!r} extractions for "
        f"{keys!r} keys",
    )


_LEVEL = _open(
    {
        "requests": _NUMBER,
        "errors": number(ge=0, le=0),
        "throughput_rps": _POSITIVE,
        "coalescing_ratio": _NUMBER,
        "cache_hit_rate": number(ge=0, le=1.0),
        "latency_ms": _open(
            dict.fromkeys(("p50", "p99", "mean", "max"), _NON_NEGATIVE),
            _ordered("p50", "p99"),
        ),
        "client": _open(
            {
                "retries": _NON_NEGATIVE,
                "latency_ms": _open({"p50": _NUMBER, "p99": _NUMBER}),
            }
        ),
    }
)


def _capacity_section(workers: Check) -> Check:
    rung = _open(
        {
            "offered_rps": _POSITIVE,
            **dict.fromkeys(
                ("achieved_rps", "p50_ms", "p99_ms", "shed", "errors"), _NON_NEGATIVE
            ),
        },
        _ordered("p50_ms", "p99_ms"),
    )
    return _open(
        {
            "workers": workers,
            "max_sustained_rps": _NON_NEGATIVE,
            "curve": array(
                rung, min_len=1, message="must be a non-empty list of load rungs"
            ),
        }
    )


_BENCH_SERVICE = _open(
    {
        "schema": const(BENCH_SERVICE_SCHEMA),
        "server": _OBJECT,
        "workload": _open({"requests_per_client": _NUMBER}),
        "levels": _open(
            dict.fromkeys(("1", "4", "16"), anything),
            _levels_keyed_by_clients,
            _sixteen_clients_coalesce,
        ),
        "coalescing": _open(
            {"distinct_keys": _NUMBER, "phase1_extractions": _NUMBER},
            _one_extraction_per_key,
        ),
        "warm_cache": _open(
            {
                "p50_ms": _NUMBER,
                "p99_ms": _NUMBER,
                "cold_compute_ms": _NUMBER,
                "speedup": number(gt=1.0),
            }
        ),
        "dispatch": _open(
            {"replay_calls": _POSITIVE, "step_calls": _NUMBER},
            _no_step_calls("a service query fell back to the step simulator"),
        ),
        # The /4 open-loop capacity headline; a fleet has several workers.
        "capacity": _open(
            {
                "slo_p99_ms": _POSITIVE,
                "single": _capacity_section(integer(ge=1)),
                "fleet": _capacity_section(integer(gt=1)),
            }
        ),
        "phase_breakdown": _PHASE_BREAKDOWN,
        "provenance": _BENCH_PROVENANCE,
    }
)

_ERROR = _open({"code": _NAME, "message": _TEXT, "status": integer(ge=400, le=599)})

_SERVICE_RESPONSE = union(
    "schema",
    {
        SERVICE_RESPONSE_SCHEMA: _open(
            {
                "endpoint": _TEXT,
                "result": either(
                    _OBJECT, array(), message="must be an object or list"
                ),
                "cached": (boolean, OMIT),
            }
        ),
        SERVICE_ERROR_SCHEMA: _open({"error": _ERROR}),
        SERVICE_STATS_SCHEMA: _open(
            {
                **_SNAPSHOT,
                "queue": _open({"depth": _NUMBER, "limit": _NUMBER}),
                "result_cache": _open(
                    dict.fromkeys(
                        ("entries", "bytes", "capacity_bytes", "hits", "misses"),
                        _NUMBER,
                    )
                ),
                "latency": mapping(
                    _open(dict.fromkeys(("count", "p50_ms", "p99_ms"), _NUMBER))
                ),
            }
        ),
    },
)

_ACCESS_LOG_RECORD = _open(
    {
        "schema": choice(ACCESS_LOG_SCHEMAS),
        "ts": _NUMBER,
        "request_id": _NAME,
        "method": _NAME,
        "path": _NAME,
        "endpoint": _NAME,
        "status": integer(ge=100, le=599),
        "latency_ms": _NON_NEGATIVE,
        "cache": (choice(("hit", "miss")), OMIT),
        "batched": (boolean, OMIT),
        "error_code": (_NAME, OMIT),
        "deadline_ms": (_NUMBER, OMIT),
        "deadline_left_ms": (_NUMBER, OMIT),
        "profile_id": (_NAME, OMIT),
        "worker": (_NAME, OMIT),
        # Campaign-annotated requests carry the (truncated) campaign id
        # so a grep over the access log isolates one campaign's traffic.
        "campaign": (_NAME, OMIT),
        "trace_id": (_TRACE_ID, OMIT),
        "span_id": (_SPAN_ID, OMIT),
    }
)

_BENCH_HISTORY_ENTRY = _open(
    {
        "schema": const(BENCH_HISTORY_SCHEMA),
        "recorded_at": _NAME,
        "git_sha": (nullable(_TEXT), None),
        "metrics": mapping(_NON_NEGATIVE, min_len=1),
        "sources": _OBJECT,
        "phases": (nullable(mapping(_NON_NEGATIVE)), None),
    }
)

_EQ2_TERMS = (
    "execute_cycles",
    "read_stall_cycles",
    "flush_stall_cycles",
    "write_buffer_stall_cycles",
)


def _eq2_terms_sum(eq2: dict[str, Any], path: str) -> None:
    # The terms and the total are separate counters accumulated over
    # many results, so their sums may round differently.
    total = sum(eq2[term] for term in _EQ2_TERMS)
    require(
        eq2_sum_matches(total, eq2["total_cycles"]),
        path,
        f"terms sum to {total!r}, total_cycles says {eq2['total_cycles']!r}",
    )


_MANIFEST = _open(
    {
        "schema": const(MANIFEST_SCHEMA),
        "experiment": _TEXT,
        "config": _open({"quick": boolean}),
        "engine": _open(
            {"path": choice(("replay", "step", "mixed", "substrate", "analytic"))}
        ),
        "eq2": _open(
            dict.fromkeys((*_EQ2_TERMS, "total_cycles"), _NUMBER), _eq2_terms_sum
        ),
        "outputs": array(),
        "metrics": _open(_SNAPSHOT),
        "wall_time_s": _NUMBER,
        "provenance": _open({"python": _TEXT, "created_at": _TEXT}),
    }
)

# -- the indexed-stream framing --------------------------------------------

_FRAMED = array(
    min_len=2,
    message="stream must be a list with at least header and summary lines",
)
_POINT_LINE = _open(
    {
        "index": integer(ge=0),
        "point": _OBJECT,
        "error": (_open({"code": _NAME}), OMIT),
    }
)
_RESULT_LINE = _open({"result": _OBJECT})
_SWEEP_HEADER = _open(
    {"schema": const(SERVICE_SWEEP_SCHEMA), "points": integer(ge=0)}
)
_SWEEP_SUMMARY = _open({"done": const(True), "errors": _NUMBER, "points": _NUMBER})


def validate_indexed_stream(
    records: Any, header: Check, summary: Check
) -> dict[str, int]:
    """Validate an indexed JSONL stream; returns its error/excluded counts.

    The framing shared by ``/v1/sweep`` and a campaign's ``results.jsonl``
    (see ``docs/SERVICE.md``): a header line (checked by ``header``,
    which yields the total ``points``), one line per grid point
    (``result`` on success, ``error`` or ``excluded`` otherwise), and a
    final summary line (checked by ``summary``) with ``done: true`` and
    the counts.  Point lines may arrive in any order — the fleet router
    interleaves shards as they complete — but every index in
    ``[0, points)`` must appear exactly once.
    """
    records = _FRAMED(records, "$")
    points = header(records[0], "$[0]")["points"]
    totals = summary(records[-1], "$[-1]")
    require(
        totals["points"] == points,
        "$[-1].points",
        "must match the header's point count",
    )
    in_grid = integer(le=points - 1)
    seen: set[int] = set()
    counts = {"errors": 0, "excluded": 0}
    for i in range(1, len(records) - 1):
        path = f"$[{i}]"
        line = _POINT_LINE(records[i], path)
        index = in_grid(line["index"], f"{path}.index")
        require(index not in seen, f"{path}.index", "duplicate point index")
        seen.add(index)
        if line.get("excluded"):
            counts["excluded"] += 1
        elif "error" in line:
            counts["errors"] += 1
        else:
            _RESULT_LINE(line, path)
    require(
        len(seen) == points,
        "$",
        f"stream carries {len(seen)} distinct points, header promised {points}",
    )
    for name, count in counts.items():
        said = totals.get(name, 0)
        require(
            said == count,
            f"$[-1].{name}",
            f"summary says {said!r}, stream carries {count}",
        )
    return counts


# -- the validators ----------------------------------------------------------


def validate_chrome_trace(document: Any) -> None:
    """Validate a Chrome trace-event document (Perfetto-loadable)."""
    _CHROME_TRACE(document, "$")


def validate_span_record(document: Any) -> None:
    """Validate one span-spool line (``repro.obs.spans/1``).

    A spool record is a finished Chrome ``"X"`` event plus the spool's
    own framing: the schema tag, a per-process append index (``seq``)
    and the wall-clock end time (``wall_end``) that offline mergers use
    to align spans across processes.  Trace-identity args, when present,
    must be well-formed hex ids.
    """
    _SPAN_RECORD(document, "$")


def validate_metrics(document: Any) -> None:
    """Validate an exported metrics snapshot (``--metrics`` file)."""
    _METRICS(document, "$")


def validate_profile(document: Any) -> None:
    """Validate a sampling-profiler document (``repro.obs.profile/1``).

    Checks the folded-stack lines (``frames... count``), the phase
    self-time table, the optional heap report, and provenance.
    """
    _PROFILE(document, "$")


def validate_bench_engine(document: Any) -> None:
    """Validate a committed engine scoreboard (``BENCH_engine.json``).

    Beyond shape, this enforces the engine-coverage invariants: the
    ``--all --quick`` dispatch counts must show zero step-simulator
    calls in phase 2 *and* zero ``Cache``-stepping extractions in
    phase 1 (CI fails otherwise; see docs/ENGINE.md).
    """
    _BENCH_ENGINE(document, "$")


def validate_service_response(document: Any) -> None:
    """Validate one ``repro.service`` JSON payload (success or error).

    The service promises that *every* body it emits — success, error,
    stats — carries a ``schema`` tag and the documented envelope, so CI
    can validate captured payloads without knowing which endpoint (or
    which failure) produced them.
    """
    _SERVICE_RESPONSE(document, "$")


def validate_bench_service(document: Any) -> None:
    """Validate a service scoreboard (``BENCH_service.json``).

    Beyond shape, this enforces the serving invariants (see
    ``docs/SERVICE.md``):

    * zero step-simulator dispatches — every simulation-backed query the
      generator issues is replay-covered;
    * exactly one phase-1 extraction per distinct (trace, geometry) key
      across the whole run — the micro-batch scheduler plus the event
      memo did their job;
    * a batch-coalescing ratio above 1 at 16 concurrent clients;
    * zero request errors at every concurrency level.
    """
    _BENCH_SERVICE(document, "$")


def validate_sweep_stream(records: Any) -> None:
    """Validate a parsed ``/v1/sweep`` JSONL stream (a list of records)."""
    validate_indexed_stream(records, _SWEEP_HEADER, _SWEEP_SUMMARY)


def validate_access_log_record(document: Any) -> None:
    """Validate one line of the serving layer's JSONL access log."""
    _ACCESS_LOG_RECORD(document, "$")


_ACCESS_LOG = array(message="access log must be a list of records")


def validate_access_log(lines: Any) -> None:
    """Validate a parsed access log (a list of line records)."""
    for i, record in enumerate(_ACCESS_LOG(lines, "$")):
        try:
            validate_access_log_record(record)
        except SchemaError as error:
            raise SchemaError(f"line {i + 1}: {error}") from None


def validate_bench_history_entry(document: Any) -> None:
    """Validate one appended ``bench_history.jsonl`` entry."""
    _BENCH_HISTORY_ENTRY(document, "$")


def validate_manifest(document: Any) -> None:
    """Validate a run manifest (``<id>.meta.json``)."""
    _MANIFEST(document, "$")
