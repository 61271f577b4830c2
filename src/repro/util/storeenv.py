"""Environment switches and default directories of the on-disk stores.

Each store keeps its own variable names (``REPRO_EVENTS_CACHE``,
``REPRO_RESULT_CACHE_DIR``, ``REPRO_CAMPAIGN_DIR``, ...); this module
is the one place that parses them.  Both helpers read the environment
per call, so tests and CLI flags can flip a store at runtime.
"""

from __future__ import annotations

import os
from pathlib import Path

_DISABLED_VALUES = frozenset({"0", "off", "false", "no"})


def enabled(variable: str) -> bool:
    """False only when ``variable`` is set to ``0``/``off``/``false``/``no``."""
    value = os.environ.get(variable)
    return value is None or value.strip().lower() not in _DISABLED_VALUES


def store_dir(
    variable: str,
    leaf: str,
    configured: str | os.PathLike[str] | None = None,
) -> Path:
    """The directory to use: ``variable`` if set, else ``configured``,
    else ``$XDG_CACHE_HOME/repro/<leaf>`` (``~/.cache/repro/<leaf>``)."""
    override = os.environ.get(variable)
    if override:
        return Path(override)
    if configured is not None:
        return Path(configured)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro" / leaf
