"""The campaign registry: content-addressed, atomic, resumable state.

On-disk layout (default ``$XDG_CACHE_HOME/repro/campaigns``, overridden
by ``REPRO_CAMPAIGN_DIR`` or ``--registry``)::

    <root>/
      <campaign-id>/              # SHA-256 of the normalized spec
        spec.json                 # canonical bytes (dump_json)
        state.json                # repro.campaign.state/1
        state.json.sum            # checksum sidecar for state.json
        artifacts/
          <result-key>.bin        # one point's result (dump_json_line)
          <result-key>.json       # sidecar: versions, size, sha256
        results.jsonl             # written when the campaign completes
        summary.json              # repro.campaign.summary/1
      baselines/
        <name>/                   # a promoted cohort (pinned copy)
          baseline.json           # repro.campaign.baseline/1
          spec.json
          results.jsonl

Every file is written with :func:`repro.util.blobstore.atomic_write`,
and ``artifacts/`` is a :class:`~repro.util.blobstore.BlobStore`, so
the sidecar format and corruption handling are those of every other
durable store (``docs/ENGINE.md`` "Durable stores").  Any load failure
degrades to recompute — a corrupt ``state.json`` is rebuilt by
re-scanning the artifacts directory, a corrupt artifact simply marks
its point pending again (the diagnostic counter
``store.corrupt_recompute{store=campaign_state|campaign}`` fires).

Determinism: ``state.json`` carries **no timestamps** and sorts its
keys, artifacts are the exact ``dump_json_line`` bytes of each result,
and ``results.jsonl`` is emitted in index order — so a campaign's final
artifacts are byte-identical whether it ran cold, was resumed after a
kill, or was re-run from a warm store (test-pinned).
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Any, Iterator

from repro.campaign import spec as spec_mod
from repro.obs.schemas import validate_indexed_stream
from repro.service import queries, schemas
from repro.service.result_cache import RESULT_CACHE_VERSION
from repro.util import storeenv
from repro.util.blobstore import (
    BlobStore,
    atomic_write,
    checksum_doc,
    report_corrupt,
)
from repro.util.jsonout import dump_json, dump_json_line
from repro.util.schema import SchemaError, anything, const, number, obj, require

#: Bump when the on-disk layout (file naming, sidecar format) changes.
REGISTRY_VERSION = 1

#: Overrides the configured registry directory.
CAMPAIGN_DIR_ENV = "REPRO_CAMPAIGN_DIR"

CAMPAIGN_STATE_SCHEMA = "repro.campaign.state/1"
CAMPAIGN_RESULTS_SCHEMA = "repro.campaign.results/1"
CAMPAIGN_SUMMARY_SCHEMA = "repro.campaign.summary/1"
CAMPAIGN_BASELINE_SCHEMA = "repro.campaign.baseline/1"


def resolve_registry_dir(configured: str | os.PathLike[str] | None) -> Path:
    """The directory to use: env override, else configured, else
    ``$XDG_CACHE_HOME/repro/campaigns``."""
    return storeenv.store_dir(CAMPAIGN_DIR_ENV, "campaigns", configured)


def _artifact_fields() -> dict[str, Any]:
    """Sidecar fields a loaded artifact must match (their bytes are the
    registry format since version 1: resumes read older registries)."""
    return {
        "registry_version": REGISTRY_VERSION,
        "result_cache_version": RESULT_CACHE_VERSION,
    }


class Campaign:
    """One registered campaign: spec, per-point state, artifacts."""

    def __init__(self, root: Path, spec: dict[str, Any]) -> None:
        self.spec = spec
        self.id = spec_mod.campaign_id(spec)
        self.root = Path(root)
        self.dir = self.root / self.id
        self.artifacts_dir = self.dir / "artifacts"
        self.artifacts = BlobStore(self.artifacts_dir, "campaign", ".bin")
        self.spec_path = self.dir / "spec.json"
        self.state_path = self.dir / "state.json"
        self.results_path = self.dir / "results.jsonl"
        self.summary_path = self.dir / "summary.json"
        self.points = spec_mod.point_count(spec)

    @property
    def name(self) -> str | None:
        return self.spec.get("name")

    @property
    def grid(self) -> dict[str, int]:
        """The length of each grid axis, as results headers report it."""
        return {"traces": len(self.spec["traces"]), **schemas.grid_shape(self.spec)}

    # -- identity ----------------------------------------------------------

    def result_key_of(self, point: dict[str, Any]) -> str:
        """One point's content-addressed result key — the *same* key the
        service's result caches use, which is what makes local and
        ``--via-service`` runs interchangeable byte for byte."""
        return queries.result_key_of(spec_mod.point_params(self.spec, point))

    # -- spec persistence --------------------------------------------------

    def save_spec(self) -> None:
        data = spec_mod.canonical_bytes(self.spec)
        if self.spec_path.exists():
            return  # content-addressed: same id == same bytes
        atomic_write(self.spec_path, data)

    # -- per-point state ----------------------------------------------------

    def _state_doc(self, status: dict[int, dict[str, Any]]) -> dict[str, Any]:
        return {
            "schema": CAMPAIGN_STATE_SCHEMA,
            "registry_version": REGISTRY_VERSION,
            "campaign": self.id,
            "points": self.points,
            "status": {str(index): status[index] for index in sorted(status)},
        }

    def save_state(self, status: dict[int, dict[str, Any]]) -> None:
        """Checkpoint the per-point status (atomic, with a checksum
        sidecar so a torn write is detected, not trusted)."""
        data = dump_json(self._state_doc(status)).encode("utf-8")
        atomic_write(self.state_path, data)
        atomic_write(
            Path(f"{self.state_path}.sum"),
            dump_json(checksum_doc(data)).encode("utf-8"),
        )

    def load_state(self) -> dict[int, dict[str, Any]]:
        """The per-point status map; rebuilt from artifacts when the
        checkpoint is missing, torn, or corrupt."""
        try:
            data = self.state_path.read_bytes()
            sidecar = json.loads(
                Path(f"{self.state_path}.sum").read_text(encoding="utf-8")
            )
            if sidecar != checksum_doc(data):
                raise ValueError("state checksum mismatch")
            doc = json.loads(data)
            if (
                doc.get("schema") != CAMPAIGN_STATE_SCHEMA
                or doc.get("registry_version") != REGISTRY_VERSION
                or doc.get("campaign") != self.id
                or doc.get("points") != self.points
            ):
                raise ValueError("state header mismatch")
            status: dict[int, dict[str, Any]] = {}
            for key, entry in doc["status"].items():
                index = int(key)
                if not 0 <= index < self.points or not isinstance(entry, dict):
                    raise ValueError(f"bad status entry {key!r}")
                status[index] = entry
            return status
        except FileNotFoundError:
            return self.rebuild_status()
        except (OSError, ValueError, KeyError) as exc:
            report_corrupt("campaign_state", self.id, exc)
            return self.rebuild_status()

    def rebuild_status(self) -> dict[int, dict[str, Any]]:
        """Reconstruct state by content: excluded points from the spec,
        done points from whichever artifacts exist and verify."""
        status: dict[int, dict[str, Any]] = {}
        for cp in spec_mod.iter_points(self.spec):
            if cp.excluded:
                status[cp.index] = {"excluded": True}
                continue
            key = self.result_key_of(cp.point)
            if self.artifacts.verify(key, _artifact_fields()):
                status[cp.index] = {"artifact": key}
        return status

    # -- result artifacts ---------------------------------------------------

    def store_artifact(self, key: str, payload: bytes) -> None:
        self.artifacts.put(key, payload, _artifact_fields())

    def load_artifact(self, key: str) -> bytes | None:
        """The stored payload, or ``None`` (corruption => recompute)."""
        return self.artifacts.get(key, _artifact_fields())

    # -- progress and results -----------------------------------------------

    def progress(
        self, status: dict[int, dict[str, Any]] | None = None
    ) -> dict[str, Any]:
        """JSON-ready counts: done / errors / excluded / pending."""
        if status is None:
            status = self.load_state()
        done = sum(1 for entry in status.values() if "artifact" in entry)
        errors = sum(1 for entry in status.values() if "error" in entry)
        excluded = sum(1 for entry in status.values() if entry.get("excluded"))
        pending = self.points - done - errors - excluded
        return {
            "points": self.points,
            "done": done,
            "errors": errors,
            "excluded": excluded,
            "pending": pending,
            "complete": pending == 0,
        }

    def result_lines(
        self, status: dict[int, dict[str, Any]] | None = None
    ) -> Iterator[bytes]:
        """The results JSONL stream, index order, newline-terminated.

        Framing mirrors ``/v1/sweep``: a header line, one line per
        *terminal* point (``result`` / ``error`` / ``excluded``), and a
        summary whose ``done`` is true only when no point is pending —
        the same stream serves ``GET /v1/campaigns/{id}/results``
        mid-run (``done: false``) and becomes ``results.jsonl`` bytes
        when the campaign completes.
        """
        if status is None:
            status = self.load_state()
        header: dict[str, Any] = {
            "schema": CAMPAIGN_RESULTS_SCHEMA,
            "campaign": self.id,
            "points": self.points,
            "grid": self.grid,
        }
        if self.name is not None:
            header["name"] = self.name
        yield (dump_json_line(header) + "\n").encode("utf-8")
        errors = 0
        excluded = 0
        emitted = 0
        for cp in spec_mod.iter_points(self.spec):
            entry = status.get(cp.index)
            if entry is None:
                continue
            if entry.get("excluded"):
                record: dict[str, Any] = {
                    "excluded": True,
                    "index": cp.index,
                    "point": cp.point,
                }
                excluded += 1
            elif "error" in entry:
                record = {
                    "error": entry["error"],
                    "index": cp.index,
                    "point": cp.point,
                }
                errors += 1
            else:
                payload = self.load_artifact(entry["artifact"])
                if payload is None:
                    # Treat a lost artifact as pending: the summary's
                    # done flag drops and a resume re-fills the point.
                    continue
                record = {
                    "index": cp.index,
                    "point": cp.point,
                    "result": json.loads(payload),
                }
            emitted += 1
            yield (dump_json_line(record) + "\n").encode("utf-8")
        summary = {
            "done": emitted == self.points,
            "errors": errors,
            "excluded": excluded,
            "points": self.points,
        }
        yield (dump_json_line(summary) + "\n").encode("utf-8")

    def write_results(
        self, status: dict[int, dict[str, Any]] | None = None
    ) -> Path:
        """Materialize ``results.jsonl`` + ``summary.json`` (complete
        campaigns only)."""
        if status is None:
            status = self.load_state()
        progress = self.progress(status)
        if not progress["complete"]:
            raise RuntimeError(
                f"campaign {self.id[:12]} has {progress['pending']} pending "
                "points; resume it before writing results"
            )
        data = b"".join(self.result_lines(status))
        atomic_write(self.results_path, data)
        summary = {
            "schema": CAMPAIGN_SUMMARY_SCHEMA,
            "campaign": self.id,
            "points": self.points,
            "done": progress["done"],
            "errors": progress["errors"],
            "excluded": progress["excluded"],
            "results_sha256": hashlib.sha256(data).hexdigest(),
        }
        if self.name is not None:
            summary["name"] = self.name
        atomic_write(self.summary_path, dump_json(summary).encode("utf-8"))
        return self.results_path

    def describe(
        self, status: dict[int, dict[str, Any]] | None = None
    ) -> dict[str, Any]:
        """JSON-ready view for status endpoints and listings."""
        out: dict[str, Any] = {
            "campaign": self.id,
            "progress": self.progress(status),
            "grid": self.grid,
        }
        if self.name is not None:
            out["name"] = self.name
        return out


class CampaignRegistry:
    """The on-disk registry of campaigns and promoted baselines."""

    def __init__(self, root: str | os.PathLike[str]) -> None:
        self.root = Path(root)
        self.baselines_root = self.root / "baselines"

    # -- campaigns ----------------------------------------------------------

    def submit(self, document: Any) -> tuple[Campaign, bool]:
        """Validate, normalize, and register a spec; idempotent.

        Returns ``(campaign, created)`` — ``created`` is False when the
        content-addressed id was already registered, in which case the
        existing state (progress so far) is simply carried forward:
        re-submitting *is* resuming.
        """
        spec = spec_mod.validate_spec(document)
        campaign = Campaign(self.root, spec)
        created = not campaign.spec_path.exists()
        campaign.dir.mkdir(parents=True, exist_ok=True)
        campaign.artifacts_dir.mkdir(parents=True, exist_ok=True)
        campaign.save_spec()
        if created:
            # Seed the checkpoint with the excluded points so status is
            # meaningful before the first executor chunk lands.
            campaign.save_state(campaign.load_state())
        return campaign, created

    def get(self, campaign_id: str) -> Campaign:
        """Load a registered campaign by its full id."""
        spec_path = self.root / campaign_id / "spec.json"
        try:
            document = json.loads(spec_path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise KeyError(f"no campaign {campaign_id!r} in {self.root}") from None
        spec = spec_mod.validate_spec(document)
        campaign = Campaign(self.root, spec)
        if campaign.id != campaign_id:
            raise KeyError(
                f"campaign directory {campaign_id!r} holds a spec hashing "
                f"to {campaign.id!r} (corrupt registry?)"
            )
        return campaign

    def campaign_ids(self) -> list[str]:
        try:
            return sorted(
                entry.name
                for entry in self.root.iterdir()
                if entry.is_dir()
                and entry.name != "baselines"
                and (entry / "spec.json").exists()
            )
        except OSError:
            return []

    def find(self, ref: str) -> Campaign:
        """Resolve a campaign by id, unique id prefix, or unique name."""
        ids = self.campaign_ids()
        if ref in ids:
            return self.get(ref)
        prefix = [cid for cid in ids if cid.startswith(ref)]
        if len(prefix) == 1:
            return self.get(prefix[0])
        if len(prefix) > 1:
            raise KeyError(f"campaign prefix {ref!r} is ambiguous: {prefix}")
        named = [
            campaign
            for campaign in (self.get(cid) for cid in ids)
            if campaign.name == ref
        ]
        if len(named) == 1:
            return named[0]
        if len(named) > 1:
            raise KeyError(
                f"campaign name {ref!r} is ambiguous: "
                f"{[c.id for c in named]}"
            )
        raise KeyError(f"no campaign matching {ref!r} in {self.root}")

    def list(self) -> list[dict[str, Any]]:
        """JSON-ready summaries of every registered campaign."""
        return [self.get(cid).describe() for cid in self.campaign_ids()]

    # -- baselines ----------------------------------------------------------

    def baseline_dir(self, name: str) -> Path:
        spec_mod.validate_name(name, "$.baseline")
        return self.baselines_root / name

    def promote(
        self, campaign: Campaign, name: str, force: bool = False
    ) -> Path:
        """Pin a completed campaign's cohort as a named baseline.

        Copies the spec and the results stream (writing them first if
        needed), so the baseline survives campaign-dir GC or deletion.
        """
        target = self.baseline_dir(name)
        if target.exists() and not force:
            raise FileExistsError(
                f"baseline {name!r} exists; pass force=True/--force to replace"
            )
        status = campaign.load_state()
        if not campaign.results_path.exists():
            campaign.write_results(status)
        results = campaign.results_path.read_bytes()
        progress = campaign.progress(status)
        doc = {
            "schema": CAMPAIGN_BASELINE_SCHEMA,
            "name": name,
            "campaign": campaign.id,
            "points": campaign.points,
            "done": progress["done"],
            "errors": progress["errors"],
            "excluded": progress["excluded"],
            "results_sha256": hashlib.sha256(results).hexdigest(),
        }
        target.mkdir(parents=True, exist_ok=True)
        atomic_write(
            target / "spec.json", spec_mod.canonical_bytes(campaign.spec)
        )
        atomic_write(target / "results.jsonl", results)
        atomic_write(target / "baseline.json", dump_json(doc).encode("utf-8"))
        return target

    def baselines(self) -> list[dict[str, Any]]:
        out = []
        try:
            names = sorted(
                entry.name
                for entry in self.baselines_root.iterdir()
                if entry.is_dir() and (entry / "baseline.json").exists()
            )
        except OSError:
            return []
        for name in names:
            try:
                out.append(
                    json.loads(
                        (self.baselines_root / name / "baseline.json").read_text(
                            encoding="utf-8"
                        )
                    )
                )
            except (OSError, ValueError):
                continue
        return out


# -- offline validation (``python -m repro.obs.validate --campaign``) ------


_RESULTS_SUMMARY = obj(
    {"done": const(True), **dict.fromkeys(("errors", "excluded", "points"), number())},
    rest=anything,
)
_SUMMARY_DOC = obj(
    {"schema": const(CAMPAIGN_SUMMARY_SCHEMA), "results_sha256": anything},
    rest=anything,
)


def validate_campaign_dir(path: str | os.PathLike[str]) -> dict[str, Any]:
    """Validate one campaign directory end to end (spec, state,
    artifacts, results); raises :class:`SchemaError`, returns counts.

    Beyond integrity (checksums, framing, the summary's sha256) it checks
    identity: every done point's artifact is addressed by that point's
    result key, and every results line carries the spec's point at its
    index.

    This is the ``--campaign`` mode of ``python -m repro.obs.validate``
    — CI points it at a smoke campaign after a kill+resume to prove the
    registry's invariants held through the crash.
    """
    directory = Path(path)
    spec_path = directory / "spec.json"
    try:
        document = json.loads(spec_path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise SchemaError(f"$: {spec_path} does not exist") from None
    except (OSError, ValueError) as exc:
        raise SchemaError(f"$: spec.json unreadable: {exc}") from None
    spec = spec_mod.validate_spec(document)
    require(
        spec_mod.canonical_bytes(spec)
        == spec_path.read_bytes(),
        "$.spec",
        "spec.json is not in canonical form",
    )
    campaign = Campaign(directory.parent, spec)
    if directory.name != campaign.id:
        raise SchemaError(
            f"$: directory name {directory.name!r} does not match the "
            f"spec's content address {campaign.id!r}"
        )
    status = campaign.load_state()
    counts = campaign.progress(status)
    for cp in spec_mod.iter_points(spec):
        key = status.get(cp.index, {}).get("artifact")
        if key is None:
            continue
        require(
            key == campaign.result_key_of(cp.point),
            f"$.status[{cp.index}].artifact",
            f"{key[:12]} is not this point's result key",
        )
        require(
            campaign.load_artifact(key) is not None,
            f"$.status[{cp.index}]",
            f"artifact {key[:12]} missing or corrupt",
        )
    out: dict[str, Any] = {"campaign": campaign.id, **counts}
    if campaign.results_path.exists():
        data = campaign.results_path.read_bytes()
        header = obj(
            {
                "schema": const(CAMPAIGN_RESULTS_SCHEMA),
                "campaign": const(campaign.id),
                "points": const(campaign.points),
            },
            rest=anything,
        )
        records = [json.loads(line) for line in data.split(b"\n") if line.strip()]
        out["results"] = validate_indexed_stream(records, header, _RESULTS_SUMMARY)
        lines = sorted(records[1:-1], key=lambda line: line["index"])
        for line, cp in zip(lines, spec_mod.iter_points(spec)):
            require(
                line["point"] == cp.point,
                f"$.results[{cp.index}].point",
                "is not the spec's point at this index",
            )
        if campaign.summary_path.exists():
            summary = _SUMMARY_DOC(
                json.loads(campaign.summary_path.read_text(encoding="utf-8")),
                "$.summary",
            )
            require(
                summary["results_sha256"] == hashlib.sha256(data).hexdigest(),
                "$.summary.results_sha256",
                "does not match results.jsonl (torn write?)",
            )
    return out
