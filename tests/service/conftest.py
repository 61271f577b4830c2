"""Shared helpers for the service tests."""

from __future__ import annotations

import threading


class Phase1Gate:
    """Holds phase 1 on the batch thread until the test releases it.

    Wraps a ``resolve_events`` callable.  A request that reaches phase 1
    sets :attr:`entered` and blocks until :meth:`release`, so a test can
    act while that request is provably computing, without sleeping.
    """

    def __init__(self, resolve) -> None:
        self._resolve = resolve
        self._released = threading.Event()
        self.entered = threading.Event()

    def __call__(self, params):
        self.entered.set()
        if not self._released.wait(30.0):
            raise TimeoutError("phase-1 gate was never released")
        return self._resolve(params)

    def release(self) -> None:
        self._released.set()

    @classmethod
    def install(cls, server) -> "Phase1Gate":
        """Gate a started :class:`~repro.service.server.ReproServer`."""
        batcher = server.batcher
        gate = cls(batcher._resolve_events)
        batcher._resolve_events = gate
        return gate
