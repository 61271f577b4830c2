"""A batched, cached tradeoff-query server over the two-phase engine.

``python -m repro serve`` starts an asyncio HTTP/JSON server (stdlib
only — the HTTP/1.1 slice lives in :mod:`repro.service.http11`) that
answers the paper's analytic queries inline and routes exact-simulation
queries through a micro-batch scheduler and a content-addressed result
cache; ``--workers N`` shards it into a multi-process fleet behind a
consistent-hash router (:mod:`repro.service.router`).  See
``docs/SERVICE.md`` for the endpoint reference, the robustness contract
(deadlines, backpressure, drain-then-shutdown), fleet mode, and the
load-generator workflow.
"""

from repro.service.batching import MicroBatcher, QueueFullError
from repro.service.client import (
    BUSY_STATUSES,
    ServiceClient,
    ServiceError,
    backoff_delays,
)
from repro.service.disk_cache import DiskResultCache
from repro.service.queries import InvalidQuery
from repro.service.result_cache import (
    RESULT_CACHE_VERSION,
    ResultCache,
    result_key,
    simulate_key_material,
)
from repro.service.router import (
    Fleet,
    FleetConfig,
    FleetThread,
    RouterServer,
)
from repro.service.server import (
    ReproServer,
    ServerConfig,
    ServerThread,
    run_server,
)
from repro.service.shard import HashRing, ring_hash, worker_names

__all__ = [
    "BUSY_STATUSES",
    "DiskResultCache",
    "Fleet",
    "FleetConfig",
    "FleetThread",
    "HashRing",
    "InvalidQuery",
    "MicroBatcher",
    "QueueFullError",
    "RESULT_CACHE_VERSION",
    "ReproServer",
    "ResultCache",
    "RouterServer",
    "ServerConfig",
    "ServerThread",
    "ServiceClient",
    "ServiceError",
    "backoff_delays",
    "result_key",
    "ring_hash",
    "run_server",
    "simulate_key_material",
    "worker_names",
]
