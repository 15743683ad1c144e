"""Campaign directory layout, manifest, and the shard-result format.

Layout of a campaign directory::

    <dir>/
      spec.json                  the submitted CampaignSpec
      manifest.json              digest + shard table (written once)
      queue.sqlite               one row per shard: lease state + result
      report.json                the final aggregate (all shards done)
      cache/                     shared verdict cache (spec.cache=True)
      telemetry.jsonl            JSONL event stream (--telemetry)

A finished shard has one record: its ``queue.sqlite`` row, holding
:func:`checkpoint_text` (``schema``, ``digest``, ``shard``, ``records``
and a sha256 ``checksum``), written in the transaction that marks the
row ``done``.  Resuming re-runs exactly the shards without a usable
result.  Schema 1 kept results in ``shards/shard-NNNN.json`` files; a
schema-1 directory is refused by name.

Every JSON file has one text format, :func:`artifact_text`, and is
written atomically by :func:`atomic_write_json` (and
:meth:`CampaignSpec.to_file` for a spec outside a campaign) through
:func:`repro.fsutil.atomic_write_text`, so a ``SIGKILL`` at any instant
leaves either the previous file or the new one, never a torn write.
:class:`CampaignPaths` is the one place that names the files.

Discarding is never silent: a stored result that cannot be used
(corrupt bytes, a checksum mismatch, a foreign digest, a wrong shape)
is reported on stderr, counted as ``campaign.checkpoint_discarded``,
and surfaced by ``repro campaign status``.  ``repro doctor`` checks a
campaign directory through :meth:`repro.campaign.Campaign.audit`, which
applies these same rules (:func:`checkpoint_records`).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from ..engine.cache import payload_checksum
from ..fsutil import atomic_write_text
from ..obs import active as _telemetry
from .spec import CampaignSpec, spec_digest

__all__ = [
    "CAMPAIGN_SCHEMA",
    "CampaignPaths",
    "artifact_text",
    "atomic_write_json",
    "build_manifest",
    "checkpoint_issue",
    "checkpoint_records",
    "checkpoint_text",
    "read_json",
]

#: Bumped whenever the manifest/checkpoint/report payloads change shape.
#: 2: shard results live, checksummed, in their ``queue.sqlite`` rows.
CAMPAIGN_SCHEMA = 2


def artifact_text(payload: dict) -> str:
    """The canonical text of a campaign JSON artifact (spec, manifest,
    shard result, report): the exact bytes stored."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def atomic_write_json(path, payload: dict) -> None:
    """Write ``payload`` as :func:`artifact_text` via tempfile + atomic rename."""
    atomic_write_text(path, artifact_text(payload), fault_site="checkpoint.write")


def read_json(path, *, warn: bool = True) -> "dict | None":
    """The parsed JSON object at ``path``, or ``None`` if missing/corrupt.

    Corruption is treated like absence, but never *silently*: unless
    ``warn`` is off, a file that exists yet cannot be parsed is named on
    stderr and counted as ``campaign.checkpoint_discarded``.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except FileNotFoundError:
        return None
    except OSError as error:
        _discard(path, f"unreadable ({error})", warn)
        return None
    try:
        payload = json.loads(text)
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        _discard(path, f"corrupt JSON ({error})", warn)
        return None
    if not isinstance(payload, dict):
        _discard(path, "not a JSON object", warn)
        return None
    return payload


def _discard(what, reason: str, warn: bool = True) -> None:
    """Report an unusable artifact: counted, and named on stderr."""
    _telemetry().count("campaign.checkpoint_discarded")
    if warn:
        print(
            f"repro: warning: discarding {what}: {reason}",
            file=sys.stderr,
        )


def checkpoint_text(digest: str, shard: int, records: list) -> str:
    """The stored result of ``shard``: its records, checksummed."""
    payload = {
        "schema": CAMPAIGN_SCHEMA,
        "digest": digest,
        "shard": shard,
        "records": records,
    }
    payload["checksum"] = payload_checksum(payload)
    return artifact_text(payload)


def checkpoint_issue(
    payload: "dict | None", digest: str, shard: int, expected_tasks: int
) -> "str | None":
    """Why a shard-result payload is unusable, or ``None`` if valid.

    The runner's one rule: a resume re-runs the shards it rejects, and
    :meth:`~repro.campaign.Campaign.audit` (``repro doctor``) reports
    them and resets their rows.
    """
    if payload is None:
        return "missing or unparseable"
    if payload.get("schema") != CAMPAIGN_SCHEMA:
        return f"schema {payload.get('schema')!r} != {CAMPAIGN_SCHEMA}"
    if payload.get("digest") != digest:
        return "campaign digest mismatch"
    if payload.get("shard") != shard:
        return f"shard id {payload.get('shard')!r} != {shard}"
    records = payload.get("records")
    if not isinstance(records, list) or len(records) != expected_tasks:
        found = len(records) if isinstance(records, list) else "no"
        return f"expected {expected_tasks} records, found {found}"
    if payload.get("checksum") != payload_checksum(payload):
        return "checksum mismatch (bit rot or torn write)"
    return None


def checkpoint_records(
    text: "str | None", digest: str, shard: int, expected_tasks: int
) -> "tuple[list | None, str | None]":
    """``(records, None)`` for a usable stored result of ``shard``, else
    ``(None, why)`` — the shard is then pending."""
    try:
        payload = json.loads(text)
    except (TypeError, ValueError):  # no text, or not JSON
        payload = None
    payload = payload if isinstance(payload, dict) else None
    issue = checkpoint_issue(payload, digest, shard, expected_tasks)
    return (None, issue) if issue is not None else (payload["records"], None)


class CampaignPaths:
    """The file locations of one campaign directory."""

    def __init__(self, directory) -> None:
        self.directory = Path(directory)

    @property
    def spec_path(self) -> Path:
        return self.directory / "spec.json"

    @property
    def manifest_path(self) -> Path:
        return self.directory / "manifest.json"

    @property
    def report_path(self) -> Path:
        return self.directory / "report.json"

    @property
    def cache_dir(self) -> Path:
        return self.directory / "cache"

    @property
    def telemetry_path(self) -> Path:
        return self.directory / "telemetry.jsonl"

    @property
    def queue_db_path(self) -> Path:
        """The SQLite shard table: lease state and shard results."""
        return self.directory / "queue.sqlite"


def build_manifest(spec: CampaignSpec) -> dict:
    """The (deterministic) shard table derived from a spec."""
    models = list(spec.model_names())
    return {
        "schema": CAMPAIGN_SCHEMA,
        "digest": spec_digest(spec),
        "name": spec.name,
        "mode": spec.mode,
        "models": models,
        "n_shards": spec.n_shards,
        "shards": [
            {
                "id": shard,
                "seeds": list(spec.shard_seeds(shard)),
                "tasks": spec.shard_task_count(shard),
            }
            for shard in range(spec.n_shards)
        ],
    }
