"""The resumable campaign executor, and the one home of crash recovery.

Drives a registered campaign's pending points to completion through the
*existing* query paths — locally via
:func:`repro.service.queries.resolve_events` /
:func:`~repro.service.queries.simulate_from_events` (the exact
functions the service's micro-batcher calls), or remotely via a running
service / fleet (``--via-service URL``) using ``/v1/sweep`` streams for
whole cache columns and ``/v1/simulate`` for stragglers.  The served
executor (:mod:`repro.campaign.service`) runs inside a server on the
same point loop.

One point loop serves all three: :func:`unsettled_points` adopts any
artifact a killed run stored after its last checkpoint and yields the
points still to resolve, and :meth:`Checkpointer.settle` either stores a
point's artifact or records its error document
(:func:`repro.service.queries.point_error`).

Checkpoint discipline: state is saved after every *chunk* (default 32
points, matching the service's ``SWEEP_CHUNK``) and once more when a run
ends, however it ends — atomically, with a checksum sidecar.  Kill the
executor at any instant and the next run loads the last checkpoint,
adopts whatever landed after it, and continues — completed points are
**never** re-simulated (test-pinned via the engine's phase-1 dispatch
counters) and the final ``results.jsonl`` is byte-identical to an
uninterrupted run.

``--via-service`` recovers from a cut connection or a truncated stream
the same way, without leaving the process: it plans its pending points
again from the campaign's state and sends only those.  After
:data:`REPLAN_LIMIT` consecutive re-plans that settle no point, the cut
is raised.  A server verdict (a ``ServiceError`` with a real HTTP
status) is never retried.

Byte-identity across modes: an artifact stores ``dump_json(result)``
bytes — the same canonical rendering the service's result caches hold —
so a campaign completed locally, over the wire, or half-and-half
produces identical files.
"""

from __future__ import annotations

import http.client
import logging
from typing import Any, Callable, Iterator

from repro.campaign import spec as spec_mod
from repro.campaign.registry import Campaign
from repro.obs import metrics, tracing
from repro.service import queries, schemas
from repro.service.client import ServiceError
from repro.util.jsonout import dump_json

log = logging.getLogger("repro.campaign")

#: Points per checkpoint chunk; mirrors ``ServiceApp.SWEEP_CHUNK``.
DEFAULT_CHUNK = 32

#: Consecutive ``--via-service`` re-plans that may settle no point
#: before the cut that ended the last attempt is raised.
REPLAN_LIMIT = 2


class Checkpointer:
    """Settles points into campaign state and saves it every
    ``chunk_size``; ``count`` hears each outcome (``done``, ``reused``
    or ``error``)."""

    def __init__(
        self,
        campaign: Campaign,
        status: dict[int, dict[str, Any]],
        chunk_size: int,
        count: Callable[[str], None],
        max_chunks: int | None = None,
        progress: Callable[[dict[str, Any]], None] | None = None,
    ) -> None:
        self.campaign = campaign
        self.status = status
        self.chunk_size = chunk_size
        self.count = count
        self.max_chunks = max_chunks
        self.progress = progress
        self.chunks = 0
        self._since_save = 0

    def record(self, index: int, entry: dict[str, Any]) -> None:
        self.status[index] = entry
        self._since_save += 1
        if self._since_save >= self.chunk_size:
            self.flush()

    def settle(
        self, cp: spec_mod.CampaignPoint, record: dict[str, Any]
    ) -> None:
        """Store ``record["result"]`` as the point's artifact, or record
        ``record["error"]`` — ``record`` is shaped like a sweep line."""
        if "error" in record:
            self.count("error")
            self.record(cp.index, {"error": record["error"]})
            return
        key = self.campaign.result_key_of(cp.point)
        self.campaign.store_artifact(
            key, dump_json(record["result"]).encode("utf-8")
        )
        self.count("done")
        self.record(cp.index, {"artifact": key})

    def flush(self) -> None:
        if self._since_save == 0:
            return
        with tracing.span(
            "campaign.chunk",
            campaign=self.campaign.id[:12],
            chunk=self.chunks,
            points=self._since_save,
        ):
            self.campaign.save_state(self.status)
        self._since_save = 0
        self.chunks += 1
        metrics.inc("campaign.checkpoints")
        if self.progress is not None:
            self.progress(self.campaign.progress(self.status))

    def finish(self) -> dict[str, Any]:
        """The final progress; writes ``results.jsonl`` once complete."""
        final = self.campaign.progress(self.status)
        if final["complete"]:
            self.campaign.write_results(self.status)
        return final

    @property
    def exhausted(self) -> bool:
        """Whether the chunk budget (``max_chunks``) is spent."""
        return self.max_chunks is not None and self.chunks >= self.max_chunks


def unsettled_points(
    checkpointer: Checkpointer,
) -> Iterator[spec_mod.CampaignPoint]:
    """The points with no state entry, in index order, until the chunk
    budget is spent.

    A point whose artifact a killed run stored after its last checkpoint
    is adopted instead of yielded: recorded and counted ``reused``, with
    zero re-simulation.
    """
    campaign = checkpointer.campaign
    for cp in spec_mod.iter_points(campaign.spec):
        if checkpointer.exhausted:
            return
        if cp.index in checkpointer.status:
            continue
        key = campaign.result_key_of(cp.point)
        if campaign.load_artifact(key) is not None:
            checkpointer.count("reused")
            checkpointer.record(cp.index, {"artifact": key})
            continue
        yield cp


def _run_local(checkpointer: Checkpointer) -> None:
    campaign = checkpointer.campaign
    for cp in unsettled_points(checkpointer):
        params = spec_mod.point_params(campaign.spec, cp.point)
        try:
            with tracing.span(
                "campaign.point", campaign=campaign.id[:12], index=cp.index
            ):
                events = queries.resolve_events(params)
                result = queries.simulate_from_events(params, events)
            record = {"result": result}
        except Exception as error:  # noqa: BLE001 - recorded per point
            record = {"error": queries.point_error(error)}
        checkpointer.settle(cp, record)


def _service_pass(checkpointer: Checkpointer, client: Any) -> None:
    """Plan the pending points from state and send them once.

    Whole pending cache columns of one trace become a single
    ``/v1/sweep`` stream (sharded across the fleet when the URL is a
    router); leftover single points go through ``/v1/simulate``.
    """
    spec = checkpointer.campaign.spec
    pending = {cp.index: cp for cp in unsettled_points(checkpointer)}
    for trace_index, offset, sweep in spec_mod.trace_sweeps(spec):
        if checkpointer.exhausted:
            return
        # Cache columns where *every* cell is pending sweep as one
        # stream; anything else would re-request settled points.
        settled = {
            point["cache_index"]
            for index, point, _ in schemas.sweep_grid(sweep)
            if offset + index not in pending
        }
        columns = [
            ci for ci in range(len(sweep["caches"])) if ci not in settled
        ]
        if columns:
            sub, to_global = schemas.sub_sweep(sweep, columns)
            for record in client.sweep(**schemas.wire_params(sub)):
                if "index" not in record:
                    continue  # the header and the summary
                if checkpointer.exhausted:
                    return
                index, _ = to_global(record["index"])
                checkpointer.settle(pending[offset + index], record)
        for cp in pending.values():
            if (
                cp.point["trace_index"] != trace_index
                or cp.point["cache_index"] in columns
            ):
                continue
            if checkpointer.exhausted:
                return
            params = schemas.wire_params(spec_mod.point_params(spec, cp.point))
            try:
                record = {"result": client.simulate(**params)["result"]}
            except ServiceError as error:
                record = {"error": queries.point_error(error)}
            checkpointer.settle(cp, record)


def _run_via_service(checkpointer: Checkpointer, client: Any) -> None:
    """:func:`_service_pass` until it ends whole, re-planning after a
    cut connection or a truncated stream."""
    idle = 0
    while True:
        settled = len(checkpointer.status)
        try:
            _service_pass(checkpointer, client)
            return
        except (
            OSError,
            http.client.HTTPException,
            ValueError,
            ServiceError,
        ) as error:
            if isinstance(error, ServiceError) and error.status:
                raise  # a server verdict, not a cut
            idle = 0 if len(checkpointer.status) > settled else idle + 1
            if idle > REPLAN_LIMIT:
                raise
            log.warning(
                "campaign %s: re-planning after %s",
                checkpointer.campaign.id[:12],
                str(error) or type(error).__name__,
            )


def run_campaign(
    campaign: Campaign,
    *,
    chunk_size: int = DEFAULT_CHUNK,
    max_chunks: int | None = None,
    retry_errors: bool = False,
    client: Any = None,
    progress: Callable[[dict[str, Any]], None] | None = None,
) -> dict[str, Any]:
    """Run (or resume) a campaign until complete or out of chunks.

    ``client`` switches to the service path (any object with the
    :class:`~repro.service.client.ServiceClient` ``sweep``/``simulate``
    shape); ``max_chunks`` bounds this invocation to N checkpoints —
    the deterministic stand-in for "the process died here" that the
    crash-resume tests build on.  ``retry_errors`` clears previously
    errored points (deadline blips) back to pending first.

    Returns a JSON-ready report; ``results.jsonl`` is (re)written
    whenever the campaign ends this run complete.
    """
    if chunk_size <= 0:
        raise ValueError(f"chunk_size must be > 0, got {chunk_size}")
    status = campaign.load_state()
    if retry_errors:
        for index in [i for i, entry in status.items() if "error" in entry]:
            del status[index]
    counts = {"done": 0, "reused": 0, "error": 0}

    def count(outcome: str) -> None:
        counts[outcome] += 1
        if outcome != "reused":  # adoptions are reported, not counted
            metrics.inc("campaign.points", outcome=outcome)

    checkpointer = Checkpointer(
        campaign, status, chunk_size, count, max_chunks, progress
    )
    with tracing.span(
        "campaign.run",
        campaign=campaign.id[:12],
        pending=campaign.progress(status)["pending"],
    ):
        try:
            if client is None:
                _run_local(checkpointer)
            else:
                _run_via_service(checkpointer, client)
        finally:
            checkpointer.flush()
    final = checkpointer.finish()
    return {
        "campaign": campaign.id,
        "chunks": checkpointer.chunks,
        "simulated": counts["done"],
        "reused": counts["reused"],
        "errors": counts["error"],
        "progress": final,
    }

