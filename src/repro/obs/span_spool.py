"""On-disk JSONL span spool: durable span collection per process.

The :class:`~repro.obs.live.RingTracer` ring answers "what just
happened" over HTTP, but it is bounded and dies with the process.  The
spool is the durable half: every finished span is appended — via the
ring's ``sink`` tap — to a JSONL file under a per-process directory, so
offline consumers (``python -m repro obs timeline``) can assemble
fleet-wide timelines long after the workers exited, and a SIGKILL loses
at most the lines the OS had not flushed.

Write discipline:

* the active file is append-only (``active.jsonl``); a full segment is
  sealed by writing its checksum sidecar (``.sha256.json``), then the
  segment itself (``segment-NNNNNN.jsonl``), each with
  :func:`repro.util.blobstore.atomic_write`, and only then removing the
  active file — so a reader never observes a partial segment.  A
  successor seals an active file its predecessor left behind, unless
  the newest segment's sidecar already records that file's checksum
  (the predecessor died after sealing it but before removing it): then
  the leftover is deleted, so no line is sealed twice;
* rotation is byte-budgeted: segments roll at ``segment_bytes`` and the
  oldest are pruned once the directory exceeds ``budget_bytes``;
* spool failures never fail serving — an append that cannot reach disk
  increments :attr:`SpanSpool.dropped` and the request proceeds.

Every line is schema-tagged ``repro.obs.spans/1`` and carries the raw
Chrome event fields plus ``seq`` (per-process append index) and
``wall_end`` (``time.time()`` at span end), the wall-clock anchor that
lets the offline merger align spans across processes without a
handshake.  ``python -m repro.obs.validate --spans DIR`` verifies the
checksums and every record.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path
from typing import Any, Iterator

from repro.util.blobstore import atomic_write
from repro.util.jsonout import dump_json_line

#: Schema tag carried by every spool line.
SPANS_SCHEMA = "repro.obs.spans/1"

#: Schema tag of a finalized segment's checksum sidecar.
SEGMENT_SIDECAR_SCHEMA = "repro.obs.spans.segment/1"

#: Rotate the active file once it reaches this many bytes.
DEFAULT_SEGMENT_BYTES = 1 << 20

#: Prune oldest segments once the directory exceeds this many bytes.
DEFAULT_BUDGET_BYTES = 16 << 20

_ACTIVE_NAME = "active.jsonl"
_SEGMENT_PREFIX = "segment-"
_SIDECAR_SUFFIX = ".sha256.json"


class SpanSpool:
    """Byte-budgeted JSONL span sink for one process."""

    def __init__(
        self,
        directory: str | Path,
        budget_bytes: int = DEFAULT_BUDGET_BYTES,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
    ) -> None:
        if segment_bytes < 1 or budget_bytes < segment_bytes:
            raise ValueError(
                f"need budget_bytes >= segment_bytes >= 1, got "
                f"{budget_bytes}/{segment_bytes}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.budget_bytes = budget_bytes
        self.segment_bytes = segment_bytes
        #: Appends that never reached disk (diagnostic only).
        self.dropped = 0
        self.appended = 0
        self._seq = 0
        self._next_segment = self._scan_next_segment()
        # An active file left behind by a killed predecessor is sealed
        # into a segment first, so its lines survive the restart and the
        # new process starts from a clean active file.  If the newest
        # segment already holds those bytes, the predecessor died
        # between sealing and removing it: delete the leftover instead.
        leftover = self.directory / _ACTIVE_NAME
        self._handle = None
        self._active_bytes = 0
        if leftover.exists() and leftover.stat().st_size > 0:
            digest = hashlib.sha256(leftover.read_bytes()).hexdigest()
            if digest == self._newest_sealed_digest():
                leftover.unlink()
            else:
                self._finalize(leftover)
        self._open_active()

    # -- write side ---------------------------------------------------------

    def append(self, event: dict[str, Any]) -> None:
        """Append one finished span event (never raises)."""
        record = {"schema": SPANS_SCHEMA, "seq": self._seq, **event}
        record["wall_end"] = round(time.time(), 6)
        try:
            line = dump_json_line(record) + "\n"
            handle = self._handle
            if handle is None:  # pragma: no cover - closed spool
                self.dropped += 1
                return
            handle.write(line)
            handle.flush()
            self._active_bytes += len(line.encode("utf-8"))
            self._seq += 1
            self.appended += 1
            if self._active_bytes >= self.segment_bytes:
                self.rotate()
        except (OSError, TypeError, ValueError):
            self.dropped += 1

    def rotate(self) -> Path | None:
        """Seal the active file into a checksummed segment (if non-empty)."""
        if self._handle is None:
            return None
        self._handle.close()
        self._handle = None
        active = self.directory / _ACTIVE_NAME
        sealed = None
        if active.exists() and active.stat().st_size > 0:
            sealed = self._finalize(active)
        self._open_active()
        return sealed

    def close(self) -> None:
        """Seal whatever is buffered and release the file handle."""
        self.rotate()
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def stats(self) -> dict[str, Any]:
        """JSON-ready bookkeeping for ``/v1/stats``."""
        return {
            "directory": str(self.directory),
            "appended": self.appended,
            "dropped": self.dropped,
            "segments": len(self._segments()),
        }

    # -- internals ----------------------------------------------------------

    def _open_active(self) -> None:
        self._handle = open(self.directory / _ACTIVE_NAME, "a")
        self._active_bytes = 0

    def _scan_next_segment(self) -> int:
        indices = [
            int(path.name[len(_SEGMENT_PREFIX):].split(".", 1)[0])
            for path in self._segments()
        ]
        return max(indices, default=-1) + 1

    def _segments(self) -> list[Path]:
        return sorted(
            path
            for path in self.directory.glob(f"{_SEGMENT_PREFIX}*.jsonl")
            if not path.name.endswith(_SIDECAR_SUFFIX)
        )

    def _newest_sealed_digest(self) -> str | None:
        """The sha256 the newest segment's sidecar records, if any."""
        segments = self._segments()
        if not segments:
            return None
        sidecar = segments[-1].with_name(segments[-1].name + _SIDECAR_SUFFIX)
        try:
            return json.loads(sidecar.read_text()).get("sha256")
        except (OSError, ValueError):
            return None

    def _finalize(self, active: Path) -> Path:
        data = active.read_bytes()
        segment = self.directory / f"{_SEGMENT_PREFIX}{self._next_segment:06d}.jsonl"
        self._next_segment += 1
        sidecar = {
            "schema": SEGMENT_SIDECAR_SCHEMA,
            "sha256": hashlib.sha256(data).hexdigest(),
            "bytes": len(data),
            "records": data.count(b"\n"),
        }
        atomic_write(
            segment.with_name(segment.name + _SIDECAR_SUFFIX),
            (dump_json_line(sidecar) + "\n").encode("utf-8"),
        )
        atomic_write(segment, data)
        active.unlink()
        self._prune()
        return segment

    def _prune(self) -> None:
        segments = self._segments()
        total = sum(path.stat().st_size for path in segments)
        for path in segments:
            if total <= self.budget_bytes:
                break
            total -= path.stat().st_size
            path.unlink(missing_ok=True)
            path.with_name(path.name + _SIDECAR_SUFFIX).unlink(missing_ok=True)


# -- read side ---------------------------------------------------------------


def spool_files(directory: str | Path) -> list[Path]:
    """One spool directory's JSONL files, segments first, in order."""
    root = Path(directory)
    files = sorted(
        path
        for path in root.glob(f"{_SEGMENT_PREFIX}*.jsonl")
        if not path.name.endswith(_SIDECAR_SUFFIX)
    )
    active = root / _ACTIVE_NAME
    if active.exists():
        files.append(active)
    return files


def read_spool(directory: str | Path) -> Iterator[dict[str, Any]]:
    """Yield every record in one spool directory, in append order."""
    for path in spool_files(directory):
        with open(path) as handle:
            for line in handle:
                line = line.strip()
                if line:
                    yield json.loads(line)


def validate_spool(directory: str | Path) -> dict[str, int]:
    """Verify a spool directory: checksums, schema, per-record shape.

    Returns ``{"segments": ..., "records": ...}``; raises
    :class:`~repro.obs.schemas.SchemaError` (or ``OSError`` /
    ``json.JSONDecodeError``) on the first problem.  The active file has
    no sidecar yet — its lines are validated individually, which keeps
    the check crash-tolerant (a SIGKILLed worker leaves a valid spool).
    """
    from repro.obs.schemas import SchemaError, validate_span_record

    root = Path(directory)
    if not root.is_dir():
        raise SchemaError(f"{root}: not a spool directory")
    n_segments = 0
    n_records = 0
    for path in spool_files(root):
        data = path.read_bytes()
        if path.name != _ACTIVE_NAME:
            sidecar_path = path.with_name(path.name + _SIDECAR_SUFFIX)
            if not sidecar_path.exists():
                raise SchemaError(f"{path.name}: missing checksum sidecar")
            sidecar = json.loads(sidecar_path.read_text())
            if sidecar.get("schema") != SEGMENT_SIDECAR_SCHEMA:
                raise SchemaError(
                    f"{sidecar_path.name}: bad schema tag "
                    f"{sidecar.get('schema')!r}"
                )
            digest = hashlib.sha256(data).hexdigest()
            if sidecar.get("sha256") != digest:
                raise SchemaError(
                    f"{path.name}: checksum mismatch "
                    f"(sidecar {sidecar.get('sha256')}, actual {digest})"
                )
            n_segments += 1
        for lineno, line in enumerate(data.decode("utf-8").splitlines(), 1):
            if not line.strip():
                continue
            try:
                validate_span_record(json.loads(line))
            except (json.JSONDecodeError, SchemaError) as error:
                raise SchemaError(
                    f"{path.name} line {lineno}: {error}"
                ) from None
            n_records += 1
    return {"segments": n_segments, "records": n_records}
