"""Campaign directory layout, manifest, and crash-safe checkpoint I/O.

Layout of a campaign directory::

    <dir>/
      spec.json                  the submitted CampaignSpec
      manifest.json              digest + shard table (written once)
      shards/shard-0007.json     one checkpoint per *completed* shard
      report.json                the final aggregate (all shards done)
      cache/                     shared verdict cache (spec.cache=True)
      telemetry.jsonl            JSONL event stream (--telemetry)
      queue.sqlite               shard work queue (multi-host)

Every JSON artifact is written with :func:`atomic_write_json` — a
tempfile in the destination directory followed by ``os.replace``
(:func:`repro.fsutil.atomic_write_text`, which also retries transient
``ENOSPC`` with bounded backoff) — so a ``SIGKILL`` at any instant
leaves either the previous file or the new one, never a torn write.  A
shard checkpoint only exists once the whole shard finished; resuming
therefore re-runs exactly the shards whose checkpoints are missing (or
unreadable, or from a different spec digest), and nothing else.

Discarding is never silent: a checkpoint that exists but cannot be
used (corrupt bytes, foreign digest, wrong shape) is reported on
stderr, counted as ``campaign.checkpoint_discarded``, and surfaced by
``repro campaign status``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from ..fsutil import atomic_write_text
from ..obs import active as _telemetry
from .spec import CampaignSpec, spec_digest

__all__ = [
    "CAMPAIGN_SCHEMA",
    "CampaignPaths",
    "atomic_write_json",
    "build_manifest",
    "checkpoint_issue",
    "read_json",
]

#: Bumped whenever the manifest/checkpoint/report payloads change shape.
CAMPAIGN_SCHEMA = 1


def atomic_write_json(path, payload: dict) -> None:
    """Write ``payload`` as canonical JSON via tempfile + atomic rename."""
    blob = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    atomic_write_text(path, blob, fault_site="checkpoint.write")


def read_json(path, *, warn: bool = True) -> "dict | None":
    """The parsed JSON object at ``path``, or ``None`` if missing/corrupt.

    Corruption is treated like absence — a checkpoint torn by a crashed
    writer (possible only on filesystems without atomic rename) simply
    means the shard runs again — but never *silently*: unless ``warn``
    is off, a file that exists yet cannot be parsed is named on stderr
    and counted as ``campaign.checkpoint_discarded``.
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


def _discard(path: Path, reason: str, warn: bool) -> None:
    _telemetry().count("campaign.checkpoint_discarded")
    if warn:
        print(
            f"repro: warning: discarding {path}: {reason}",
            file=sys.stderr,
        )


def checkpoint_issue(
    payload: "dict | None", digest: str, shard: int, expected_tasks: int
) -> "str | None":
    """Why a shard-checkpoint payload is unusable, or ``None`` if valid.

    Shared by the runner (which re-runs bad shards) and ``repro
    doctor`` (which reports and quarantines them).
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
    return None


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
    def shards_dir(self) -> Path:
        return self.directory / "shards"

    def shard_path(self, shard: int) -> Path:
        return self.shards_dir / f"shard-{shard:04d}.json"

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
        """SQLite work-queue database (multi-host coordination)."""
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
                "tasks": len(spec.shard_seeds(shard)) * len(models),
            }
            for shard in range(spec.n_shards)
        ],
    }
