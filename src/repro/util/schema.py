"""One table-driven interpreter for every JSON document the package checks.

Request parameters (:mod:`repro.service.schemas`), campaign specs
(:mod:`repro.campaign.spec`) and the observability artifacts
(:mod:`repro.obs.schemas`) are declared as trees of *checks*.  A check
is a closure ``check(value, path) -> normalized value`` built once at
import time.  It raises :class:`SchemaError` with a JSON-path message
(``$.params.cache.line_size: must be a power of two``) on the first
violation.  The constructors here are the only code in the package that
tests a JSON value's type, range, enum membership or unknown keys.
Cross-field invariants are small named functions that an object runs
after its fields (``after=``).

The environment is offline (no ``jsonschema``), and ``validate_simulate``
runs on every ``/v1/simulate`` request, so bounds, defaults and key sets
are resolved when a table is built, never per call.
"""

from __future__ import annotations

import math
import operator
import re
from collections.abc import Callable, Iterable, Mapping
from typing import Any

Check = Callable[[Any, str], Any]
Invariant = Callable[[dict[str, Any], str], None]

#: Field default: a missing key is an error (``is required``).
REQUIRED = object()

#: Field default: a missing key stays missing in the output.
OMIT = object()


class SchemaError(ValueError):
    """A document does not match its declared schema."""


def require(condition: bool, path: str, message: str) -> None:
    """Raise :class:`SchemaError` at ``path`` unless ``condition`` holds."""
    if not condition:
        raise SchemaError(f"{path}: {message}")


def anything(value: Any, path: str) -> Any:
    """Accept any JSON value unchanged."""
    return value


def boolean(value: Any, path: str) -> bool:
    """A JSON ``true``/``false``."""
    require(isinstance(value, bool), path, "must be a bool")
    return value


def _bounded(kind: Check, ge: Any, le: Any, gt: Any) -> Check:
    """``kind`` (which normalizes the value), then its range."""
    tests = ((operator.ge, ">=", ge), (operator.gt, ">", gt), (operator.le, "<=", le))
    bounds = tuple(
        (test, bound, f"must be {symbol} {bound}")
        for test, symbol, bound in tests
        if bound is not None
    )

    def check(value: Any, path: str) -> Any:
        result = kind(value, path)
        for test, bound, message in bounds:
            if not test(value, bound):
                raise SchemaError(f"{path}: {message}")
        return result

    return check


def _finite(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"{path}: expected a number, got {type(value).__name__}")
    try:
        finite = math.isfinite(value)
    except OverflowError:
        finite = False
    if not finite:
        raise SchemaError(f"{path}: must be a finite number")
    return float(value)


def _whole(value: Any, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(f"{path}: expected an integer, got {type(value).__name__}")
    return value


def number(
    ge: float | None = None, le: float | None = None, gt: float | None = None
) -> Check:
    """A finite JSON number (bools are not numbers), normalized to ``float``.

    NaN, ±Infinity and integers too large for a float are rejected:
    they are not JSON numbers, and none of them survives Eq. (2).
    """
    return _bounded(_finite, ge, le, gt)


def integer(
    ge: int | None = None, le: int | None = None, gt: int | None = None
) -> Check:
    """A JSON integer (bools are not integers), returned unchanged."""
    return _bounded(_whole, ge, le, gt)


def string(
    pattern: str | None = None, message: str = "must be a non-empty string"
) -> Check:
    """A non-empty string, or one that fully matches ``pattern``."""
    matcher = re.compile(pattern).fullmatch if pattern is not None else bool

    def check(value: Any, path: str) -> str:
        if not isinstance(value, str) or not matcher(value):
            raise SchemaError(f"{path}: {message}")
        return value

    return check


def choice(values: Iterable[str]) -> Check:
    """One of a fixed set of strings."""
    members = tuple(values)
    message = f"must be one of {list(members)}"

    def check(value: Any, path: str) -> str:
        if not isinstance(value, str) or value not in members:
            raise SchemaError(f"{path}: {message}")
        return value

    return check


def const(expected: Any) -> Check:
    """Exactly ``expected`` (a schema tag, ``true``): same value, same type."""
    message = f"must be {expected!r}"

    def check(value: Any, path: str) -> Any:
        if type(value) is not type(expected) or value != expected:
            raise SchemaError(f"{path}: {message}")
        return value

    return check


def nullable(inner: Check) -> Check:
    """``null``, or whatever ``inner`` accepts."""

    def check(value: Any, path: str) -> Any:
        return None if value is None else inner(value, path)

    return check


def array(
    items: Check = anything,
    min_len: int = 0,
    max_len: int | None = None,
    message: str = "must be a list",
) -> Check:
    """A list of ``items``; a wrong type or length gets one ``message``."""

    def check(value: Any, path: str) -> list[Any]:
        if (
            not isinstance(value, list)
            or len(value) < min_len
            or (max_len is not None and len(value) > max_len)
        ):
            raise SchemaError(f"{path}: {message}")
        return [items(item, f"{path}[{i}]") for i, item in enumerate(value)]

    return check


def mapping(values: Check = anything, min_len: int = 0) -> Check:
    """An object with arbitrary keys, each value checked by ``values``."""

    def check(value: Any, path: str) -> dict[str, Any]:
        require(isinstance(value, dict), path, "must be a JSON object")
        require(len(value) >= min_len, path, "must not be empty")
        return {
            key: values(item, f"{path}[{key!r}]") for key, item in value.items()
        }

    return check


def either(*checks: Check, message: str) -> Check:
    """The first of ``checks`` that accepts the value."""

    def check(value: Any, path: str) -> Any:
        for candidate in checks:
            try:
                return candidate(value, path)
            except SchemaError:
                continue
        raise SchemaError(f"{path}: {message}")

    return check


def obj(
    fields: Mapping[str, Check | tuple[Check, Any]],
    *,
    rest: Check | None = None,
    after: Iterable[Invariant] = (),
    unknown: str = "unknown parameter(s) {}",
    message: str = "must be a JSON object",
) -> Check:
    """An object with declared fields, checked in declaration order.

    Each field is a bare check (required) or ``(check, default)``.  A
    missing field's default is :data:`REQUIRED`, :data:`OMIT`, ``None``
    (the output holds ``None``) or a JSON value that the check
    normalizes.  Keys outside ``fields`` go to ``rest`` (at
    ``path['key']``); without ``rest`` they are rejected with the
    ``unknown`` wording.  The ``after`` invariants then see the
    normalized object.
    """
    plan = []
    for name, spec in fields.items():
        check, default = spec if isinstance(spec, tuple) else (spec, REQUIRED)
        if not (
            default is REQUIRED
            or default is OMIT
            or default is None
            or isinstance(default, (dict, list))
        ):
            default = check(default, f"<default of {name}>")
        plan.append((name, check, default))
    allowed = frozenset(fields)
    invariants = tuple(after)

    def check_object(value: Any, path: str) -> dict[str, Any]:
        if not isinstance(value, dict):
            raise SchemaError(f"{path}: {message}")
        if rest is None and not value.keys() <= allowed:
            unknown_keys = sorted(set(value) - allowed)
            raise SchemaError(f"{path}: {unknown.format(unknown_keys)}")
        out: dict[str, Any] = {}
        for name, check, default in plan:
            if name in value:
                out[name] = check(value[name], f"{path}.{name}")
            elif default is REQUIRED:
                raise SchemaError(f"{path}.{name}: is required")
            elif isinstance(default, (dict, list)):
                out[name] = check(default, f"{path}.{name}")
            elif default is not OMIT:
                out[name] = default
        if rest is not None:
            for key, item in value.items():
                if key not in allowed:
                    out[key] = rest(item, f"{path}[{key!r}]")
        for invariant in invariants:
            invariant(out, path)
        return out

    return check_object


def union(tag: str, variants: Mapping[str, Check]) -> Check:
    """An object whose ``tag`` field selects the variant that checks it."""
    message = f"must be one of {list(variants)}"

    def check(value: Any, path: str) -> Any:
        if not isinstance(value, dict):
            raise SchemaError(f"{path}: must be a JSON object")
        if tag not in value:
            raise SchemaError(f"{path}.{tag}: is required")
        kind = value[tag]
        variant = variants.get(kind) if isinstance(kind, str) else None
        if variant is None:
            raise SchemaError(f"{path}.{tag}: {message}")
        return variant(value, path)

    return check
