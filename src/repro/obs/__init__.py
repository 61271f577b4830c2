"""Observability layer: span tracing, simulator metrics, run manifests.

The paper's whole point is *decomposable accounting* — Eq. (2) splits
execution time into execute / read-stall / write-stall terms — and this
package exposes the same decomposition live, for the code itself:

``repro.obs.tracing``
    Nested wall-clock spans with a Chrome-trace-event exporter
    (open the ``--trace`` file in https://ui.perfetto.dev).
``repro.obs.metrics``
    Labeled counters/histograms from the hot layers (cache events,
    engine dispatch, φ memoization) plus the per-run Eq. (2) cycle
    breakdown with a sums-to-total self-check.
``repro.obs.profile``
    Wall-clock sampling profiler with span-joined phase attribution:
    folded stacks, Perfetto export, optional ``tracemalloc`` heap
    snapshots (``--profile`` on the runner, ``/v1/debug/profile`` on
    the service).
``repro.obs.manifest``
    ``<id>.meta.json`` provenance for every ``--out`` run.
``repro.obs.logs``
    ``-v`` / ``--log-level`` logging configuration for the CLIs.
``repro.obs.schemas`` / ``repro.obs.validate``
    Structural validation of the emitted JSON artifacts.

Both tracing and metrics are **disabled by default** and cost one
module-global load per instrumentation site while off, so the engine's
hot paths carry their probes permanently (the replay benchmark pins the
overhead budget; see ``docs/OBSERVABILITY.md``).
"""

from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    VOLATILE_KEYS,
    build_manifest,
    git_revision,
    stable_view,
    write_manifest,
)
from repro.obs.metrics import (
    EQ2_TERMS,
    Eq2MismatchError,
    MetricsRegistry,
    SNAPSHOT_SCHEMA,
    current_metrics,
    disable_metrics,
    enable_metrics,
    eq2_breakdown,
    inc,
    metrics_enabled,
    observe,
    record_timing,
)
from repro.obs.profile import (
    DEFAULT_HZ,
    PROFILE_SCHEMA,
    ProfilerActiveError,
    SamplingProfiler,
    active_profiler,
    chrome_trace,
    folded_text,
    phase_self_seconds,
)
from repro.obs.tracing import (
    Tracer,
    current_tracer,
    disable_tracing,
    enable_tracing,
    span,
    spans_active,
    tracing_enabled,
)

__all__ = [
    "DEFAULT_HZ",
    "MANIFEST_SCHEMA",
    "PROFILE_SCHEMA",
    "SNAPSHOT_SCHEMA",
    "VOLATILE_KEYS",
    "EQ2_TERMS",
    "Eq2MismatchError",
    "MetricsRegistry",
    "ProfilerActiveError",
    "SamplingProfiler",
    "Tracer",
    "active_profiler",
    "build_manifest",
    "chrome_trace",
    "folded_text",
    "phase_self_seconds",
    "current_metrics",
    "current_tracer",
    "disable_metrics",
    "disable_tracing",
    "enable_metrics",
    "enable_tracing",
    "eq2_breakdown",
    "git_revision",
    "inc",
    "metrics_enabled",
    "observe",
    "record_timing",
    "span",
    "spans_active",
    "stable_view",
    "tracing_enabled",
    "write_manifest",
]
