"""Campaigns as a service: background execution inside the server.

:class:`CampaignService` owns the registry directory a server was given
(``--campaign-dir``) and runs submitted campaigns as asyncio background
tasks *inside* the serving process — each point resolved through the
same two-tier result cache + micro-batcher path interactive requests
take (or, on the fleet's router, forwarded to the owning worker), so a
campaign coalesces with live traffic instead of competing with it.

Contract with the registry: the service is just another executor.  It
checkpoints after every chunk with the same atomic state writes, so a
server kill mid-campaign loses at most one chunk of *bookkeeping* (the
artifacts already written are adopted on resume).  There is no
auto-resume on boot — re-POSTing the same spec (same content address)
to the restarted server resumes it, which keeps crash recovery an
explicit, observable act.

Endpoints wired in :mod:`repro.service.app`:

* ``POST /v1/campaigns``          — submit (or resume) a spec
* ``GET  /v1/campaigns``          — list registered campaigns
* ``GET  /v1/campaigns/{ref}``    — one campaign's status
* ``GET  /v1/campaigns/{ref}/results`` — stream the results JSONL
"""

from __future__ import annotations

import asyncio
import logging
from typing import Any, Awaitable, Callable, Iterator

from repro.campaign import spec as spec_mod
from repro.campaign.executor import (
    DEFAULT_CHUNK,
    Checkpointer,
    unsettled_points,
)
from repro.campaign.registry import Campaign, CampaignRegistry
from repro.obs import live, tracing
from repro.obs.metrics import MetricsRegistry
from repro.service import queries

log = logging.getLogger("repro.campaign")

#: Async per-point resolver: validated simulate params -> result object.
Resolver = Callable[[dict[str, Any]], Awaitable[dict[str, Any]]]


class CampaignService:
    """Background campaign execution for one server process."""

    def __init__(
        self,
        registry: CampaignRegistry,
        resolver: Resolver,
        metrics_registry: MetricsRegistry,
        chunk_size: int = DEFAULT_CHUNK,
    ) -> None:
        self.registry = registry
        self.resolver = resolver
        self.metrics = metrics_registry
        self.chunk_size = chunk_size
        self._tasks: dict[str, asyncio.Task[None]] = {}

    # -- submission ---------------------------------------------------------

    def submit(self, document: Any) -> dict[str, Any]:
        """Register (idempotent) and start/resume the background run."""
        campaign, created = self.registry.submit(document)
        self.metrics.inc(
            "service.campaign.submitted",
            outcome="created" if created else "resubmitted",
        )
        started = self._ensure_running(campaign)
        view = campaign.describe()
        view["created"] = created
        view["running"] = self.is_running(campaign.id)
        view["started"] = started
        return view

    def _ensure_running(self, campaign: Campaign) -> bool:
        if self.is_running(campaign.id):
            return False
        if campaign.progress()["complete"]:
            return False
        task = asyncio.get_running_loop().create_task(
            self._run(campaign), name=f"campaign-{campaign.id[:12]}"
        )
        self._tasks[campaign.id] = task
        task.add_done_callback(lambda _t: self._tasks.pop(campaign.id, None))
        return True

    def is_running(self, campaign_id: str) -> bool:
        task = self._tasks.get(campaign_id)
        return task is not None and not task.done()

    # -- the background executor -------------------------------------------

    async def _run(self, campaign: Campaign) -> None:
        checkpointer = Checkpointer(
            campaign,
            campaign.load_state(),
            self.chunk_size,
            lambda outcome: self.metrics.inc(
                "service.campaign.points", outcome=outcome
            ),
        )
        log.info(
            "campaign %s: running (%d pending)",
            campaign.id[:12],
            campaign.progress(checkpointer.status)["pending"],
        )
        try:
            for cp in unsettled_points(checkpointer):
                params = spec_mod.point_params(campaign.spec, cp.point)
                try:
                    # Each point gets a fresh trace root so the fleet's
                    # forwarded resolve carries a traceparent and the
                    # worker's spans join this point's tree — the spans
                    # carry the campaign id for spool-side filtering.
                    with tracing.trace_context((live.new_trace_id(), "")):
                        with tracing.span(
                            "campaign.point",
                            campaign=campaign.id[:12],
                            index=cp.index,
                        ):
                            record = {"result": await self.resolver(params)}
                except Exception as error:  # noqa: BLE001 - per point
                    record = {"error": queries.point_error(error)}
                checkpointer.settle(cp, record)
        finally:
            # A drain/cancel mid-chunk still persists the partial chunk:
            # resume re-derives nothing.
            checkpointer.flush()
        if checkpointer.finish()["complete"]:
            self.metrics.inc("service.campaign.completed")
            log.info("campaign %s: complete", campaign.id[:12])

    # -- read side ----------------------------------------------------------

    def find(self, ref: str) -> Campaign:
        return self.registry.find(ref)

    def describe(self, ref: str) -> dict[str, Any]:
        campaign = self.find(ref)
        view = campaign.describe()
        view["running"] = self.is_running(campaign.id)
        return view

    def list(self) -> list[dict[str, Any]]:
        views = self.registry.list()
        for view in views:
            view["running"] = self.is_running(view["campaign"])
        return views

    def result_lines(self, ref: str) -> Iterator[bytes]:
        return self.find(ref).result_lines()

    def stats(self) -> dict[str, Any]:
        """JSON-ready section for ``/v1/stats``."""
        views = self.registry.list()
        return {
            "directory": str(self.registry.root),
            "campaigns": len(views),
            "running": sum(1 for v in views if self.is_running(v["campaign"])),
            "complete": sum(1 for v in views if v["progress"]["complete"]),
        }

    # -- lifecycle ----------------------------------------------------------

    async def shutdown(self) -> None:
        """Cancel every background run and wait for the checkpoints.

        Called inside the server's drain *before* the batcher drains, so
        in-flight resolver awaits unwind cleanly and each task's final
        ``flush()`` lands while the process is still fully alive.
        """
        tasks = [task for task in self._tasks.values() if not task.done()]
        for task in tasks:
            task.cancel()
        for task in tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        self._tasks.clear()
