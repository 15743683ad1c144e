"""``repro doctor`` — an fsck for cache and campaign directories.

:func:`diagnose` walks a verdict-cache root or a campaign directory,
verifies every durable artifact against the invariants the rest of the
package relies on, and returns a :class:`DoctorReport` of
:class:`Finding`\\ s.  With ``repair=True`` it also acts: bad artifacts
are *quarantined* (moved to ``<root>/quarantine/``, never deleted),
derivable ones (the campaign manifest, a stale ``report.json``) are
rewritten from their source of truth, and orphan atomic-write
tempfiles are removed.

What is checked
---------------

Cache root (``<root>/verdicts/...``):

* every entry parses as a JSON object,
* carries the current :data:`~repro.engine.cache.CACHE_VERSION`,
* passes its embedded sha256 ``checksum``
  (:func:`~repro.engine.cache.payload_checksum`),
* sits in the shard directory its own file name prescribes,
* plus: orphan ``.*.tmp`` files and the quarantine backlog.

Campaign directory (``spec.json`` present):

* ``spec.json`` parses into a valid spec (unrepairable — the spec *is*
  the campaign's identity),
* ``manifest.json`` matches the spec digest (repair: rewritten, it is
  pure derived data),
* every shard checkpoint passes
  :func:`~repro.campaign.manifest.checkpoint_issue` — the exact
  validation the runner applies on resume,
* ``report.json``, when present, is byte-identical to the aggregate of
  the checkpoints (repair: rewritten when all shards are done,
  quarantined when some are pending); a *partial* report is accepted
  when its ``quarantined_shards`` exactly account for the pending ones,
* the work queue ``queue.sqlite`` agrees with the spec and the
  checkpoints (:func:`repro.campaign.queue.audit`): matching digest
  (repair: a foreign or corrupt database is quarantined), in-range
  shard ids (repair: removed), no expired leases (repair: reclaimed),
  no ``done`` rows without a valid checkpoint behind them (repair:
  reset to open), with quarantined shards surfaced as info,
* a nested ``cache/`` directory gets the full cache check.

The doctor never invents data: everything it rewrites is derivable,
everything else it quarantines for post-mortem and lets the runner
recompute.
"""

from __future__ import annotations

import dataclasses
import json
import re
from dataclasses import dataclass, field
from pathlib import Path

from .campaign.manifest import (
    CAMPAIGN_SCHEMA,
    CampaignPaths,
    atomic_write_json,
    build_manifest,
    checkpoint_issue,
    read_json,
)
from .campaign.queue import QueueError, audit
from .campaign.report import aggregate_report
from .campaign.spec import CampaignSpec, spec_digest
from .engine.cache import CACHE_VERSION, payload_checksum
from .fsutil import QUARANTINE_DIR, find_orphan_temps, quarantine

__all__ = [
    "DoctorError",
    "DoctorReport",
    "Finding",
    "diagnose",
]

_SHARD_NAME = re.compile(r"^shard-(\d{4})\.json$")
_KEY_NAME = re.compile(r"^[0-9a-f]{64}\.json$")


class DoctorError(RuntimeError):
    """The given path is neither a cache root nor a campaign directory."""


@dataclass(frozen=True)
class Finding:
    """One diagnosed problem (or notable fact) about one artifact."""

    #: ``"error"`` (artifact unusable), ``"warning"`` (suspicious or
    #: wasteful, but nothing will misbehave), or ``"info"``.
    severity: str
    #: Dotted category, e.g. ``cache.entry`` or ``campaign.manifest``.
    category: str
    #: Path of the artifact, relative to the diagnosed root.
    path: str
    detail: str
    #: The repair performed (``"quarantined"``, ``"rewritten"``,
    #: ``"removed"``, ``"reclaimed"``, ``"reset"``), or ``None`` when
    #: nothing was (or could be) done.
    repair: "str | None" = None

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass
class DoctorReport:
    """Everything one :func:`diagnose` pass found."""

    root: str
    #: ``"cache"`` or ``"campaign"``.
    kind: str
    #: Artifacts that were inspected and found healthy.
    healthy: int = 0
    findings: list = field(default_factory=list)

    @property
    def errors(self) -> int:
        return sum(1 for f in self.findings if f.severity == "error")

    @property
    def unrepaired_errors(self) -> int:
        return sum(
            1
            for f in self.findings
            if f.severity == "error" and f.repair is None
        )

    @property
    def warnings(self) -> int:
        return sum(1 for f in self.findings if f.severity == "warning")

    def ok(self) -> bool:
        """Whether the directory is usable as-is (no unrepaired errors)."""
        return self.unrepaired_errors == 0

    def as_dict(self) -> dict:
        return {
            "root": self.root,
            "kind": self.kind,
            "healthy": self.healthy,
            "errors": self.errors,
            "unrepaired_errors": self.unrepaired_errors,
            "warnings": self.warnings,
            "ok": self.ok(),
            "findings": [f.as_dict() for f in self.findings],
        }

    def render(self) -> str:
        lines = [f"repro doctor: {self.kind} directory {self.root}"]
        for finding in self.findings:
            repair = f"  [{finding.repair}]" if finding.repair else ""
            lines.append(
                f"  {finding.severity.upper():7s} {finding.path}: "
                f"{finding.detail}{repair}"
            )
        lines.append(
            f"{self.healthy} healthy artifact(s), "
            f"{self.errors} error(s) ({self.unrepaired_errors} unrepaired), "
            f"{self.warnings} warning(s)"
        )
        return "\n".join(lines)


def diagnose(path, repair: bool = False) -> DoctorReport:
    """Check (and with ``repair=True``, mend) a cache or campaign dir."""
    root = Path(path)
    if (root / "spec.json").is_file():
        report = DoctorReport(root=str(root), kind="campaign")
        _check_campaign(root, report, repair)
        return report
    if (root / "verdicts").is_dir() or root.name == ".repro-cache":
        report = DoctorReport(root=str(root), kind="cache")
        _check_cache(root, root, report, repair)
        _check_orphans(root, root, report, repair)
        return report
    raise DoctorError(
        f"{root} is neither a campaign directory (no spec.json) nor a "
        "verdict-cache root (no verdicts/)"
    )


# ----------------------------------------------------------------------
# Shared helpers.
# ----------------------------------------------------------------------

def _relative(root: Path, path: Path) -> str:
    try:
        return str(path.relative_to(root))
    except ValueError:
        return str(path)


def _quarantine(root: Path, path: Path, repair: bool) -> "str | None":
    """Move ``path`` into ``<root>/quarantine/`` when repairing."""
    if not repair:
        return None
    try:
        quarantine(root, path)
    except OSError:
        return None
    return "quarantined"


# ----------------------------------------------------------------------
# Cache checks.
# ----------------------------------------------------------------------

def _check_cache(
    report_root: Path, cache_root: Path, report: DoctorReport, repair: bool
) -> None:
    verdict_dir = cache_root / "verdicts"
    if not verdict_dir.is_dir():
        report.findings.append(
            Finding(
                "info",
                "cache.empty",
                _relative(report_root, verdict_dir),
                "no verdicts directory (cache never written)",
            )
        )
    else:
        for shard_dir in sorted(verdict_dir.iterdir()):
            if not shard_dir.is_dir():
                continue
            for entry in sorted(shard_dir.glob("*.json")):
                _check_cache_entry(
                    report_root, cache_root, entry, report, repair
                )
    quarantine_dir = cache_root / QUARANTINE_DIR
    if quarantine_dir.is_dir():
        backlog = sum(1 for p in quarantine_dir.iterdir() if p.is_file())
        if backlog:
            report.findings.append(
                Finding(
                    "info",
                    "cache.quarantine",
                    _relative(report_root, quarantine_dir),
                    f"{backlog} quarantined artifact(s) awaiting post-mortem "
                    "(safe to delete)",
                )
            )


def _check_cache_entry(
    report_root: Path,
    cache_root: Path,
    entry: Path,
    report: DoctorReport,
    repair: bool,
) -> None:
    relative = _relative(report_root, entry)

    def bad(severity: str, detail: str) -> None:
        report.findings.append(
            Finding(
                severity,
                "cache.entry",
                relative,
                detail,
                _quarantine(cache_root, entry, repair),
            )
        )

    try:
        payload = json.loads(entry.read_text())
        if not isinstance(payload, dict):
            raise ValueError("not a JSON object")
    except (OSError, ValueError) as error:
        bad("error", f"corrupt entry ({error})")
        return
    if payload.get("cache_version") != CACHE_VERSION:
        bad(
            "warning",
            f"stale cache_version {payload.get('cache_version')!r} "
            f"(current {CACHE_VERSION})",
        )
        return
    if payload.get("checksum") != payload_checksum(payload):
        bad("error", "payload checksum mismatch (bit rot or torn write)")
        return
    if not _KEY_NAME.match(entry.name):
        bad("warning", "file name is not a sha256 content key")
        return
    if entry.parent.name != entry.name[:2]:
        bad(
            "warning",
            f"misplaced entry (in shard {entry.parent.name!r}, key "
            f"prescribes {entry.name[:2]!r}) — unreachable by lookup",
        )
        return
    report.healthy += 1


def _check_orphans(
    report_root: Path, root: Path, report: DoctorReport, repair: bool
) -> None:
    for orphan in find_orphan_temps(root):
        action = None
        if repair:
            try:
                orphan.unlink()
                action = "removed"
            except OSError:
                action = None
        report.findings.append(
            Finding(
                "warning",
                "storage.orphan_temp",
                _relative(report_root, orphan),
                "orphan atomic-write tempfile (crashed writer)",
                action,
            )
        )


# ----------------------------------------------------------------------
# Campaign checks.
# ----------------------------------------------------------------------

def _check_campaign(root: Path, report: DoctorReport, repair: bool) -> None:
    paths = CampaignPaths(root)
    spec_payload = read_json(paths.spec_path, warn=False)
    spec = None
    if spec_payload is None:
        report.findings.append(
            Finding(
                "error",
                "campaign.spec",
                "spec.json",
                "missing or corrupt — the spec is the campaign's identity "
                "and cannot be reconstructed; restore it or restart the "
                "campaign",
            )
        )
    else:
        try:
            spec = CampaignSpec.from_dict(spec_payload)
        except (TypeError, ValueError) as error:
            report.findings.append(
                Finding(
                    "error", "campaign.spec", "spec.json", f"invalid spec ({error})"
                )
            )
    if spec is None:
        _check_orphans(root, root, report, repair)
        return
    report.healthy += 1
    digest = spec_digest(spec)

    _check_manifest(root, paths, spec, digest, report, repair)
    pending = _check_shards(root, paths, spec, digest, report, repair)
    _check_queue(root, paths, spec, digest, pending, report, repair)
    _check_report(root, paths, spec, digest, pending, report, repair)

    if paths.cache_dir.is_dir():
        _check_cache(root, paths.cache_dir, report, repair)
    _check_orphans(root, root, report, repair)


def _check_manifest(
    root: Path,
    paths: CampaignPaths,
    spec: CampaignSpec,
    digest: str,
    report: DoctorReport,
    repair: bool,
) -> None:
    expected = build_manifest(spec)
    manifest = read_json(paths.manifest_path, warn=False)
    if manifest == expected:
        report.healthy += 1
        return
    if manifest is None:
        detail = "missing or corrupt"
    elif manifest.get("digest") != digest:
        detail = (
            f"digest {manifest.get('digest', '')[:12]!r} does not match "
            f"spec digest {digest[:12]!r}"
        )
    else:
        detail = "content does not match the spec-derived shard table"
    action = None
    if repair:
        atomic_write_json(paths.manifest_path, expected)
        action = "rewritten"
    report.findings.append(
        Finding("error", "campaign.manifest", "manifest.json", detail, action)
    )


def _check_shards(
    root: Path,
    paths: CampaignPaths,
    spec: CampaignSpec,
    digest: str,
    report: DoctorReport,
    repair: bool,
) -> list:
    """Validate every shard checkpoint; returns the pending shard ids."""
    completed = set()
    if paths.shards_dir.is_dir():
        for entry in sorted(paths.shards_dir.iterdir()):
            if not entry.is_file() or entry.name.startswith("."):
                continue
            relative = _relative(root, entry)
            match = _SHARD_NAME.match(entry.name)
            if match is None:
                report.findings.append(
                    Finding(
                        "warning",
                        "campaign.shard",
                        relative,
                        "foreign file in shards/ (not a checkpoint)",
                        _quarantine(root, entry, repair),
                    )
                )
                continue
            shard = int(match.group(1))
            if shard >= spec.n_shards:
                report.findings.append(
                    Finding(
                        "error",
                        "campaign.shard",
                        relative,
                        f"shard id {shard} out of range "
                        f"(spec has {spec.n_shards} shards)",
                        _quarantine(root, entry, repair),
                    )
                )
                continue
            expected = len(spec.shard_seeds(shard)) * len(spec.model_names())
            payload = read_json(entry, warn=False)
            issue = checkpoint_issue(payload, digest, shard, expected)
            if issue is not None:
                report.findings.append(
                    Finding(
                        "error",
                        "campaign.shard",
                        relative,
                        f"unusable checkpoint: {issue} — the shard will "
                        "re-run on resume",
                        _quarantine(root, entry, repair),
                    )
                )
                continue
            report.healthy += 1
            completed.add(shard)
    pending = [s for s in range(spec.n_shards) if s not in completed]
    if pending:
        report.findings.append(
            Finding(
                "info",
                "campaign.pending",
                "shards/",
                f"{len(pending)} of {spec.n_shards} shard(s) pending — "
                f"finish with: repro campaign resume {root}",
            )
        )
    return pending


def _check_report(
    root: Path,
    paths: CampaignPaths,
    spec: CampaignSpec,
    digest: str,
    pending: list,
    report: DoctorReport,
    repair: bool,
) -> None:
    if not paths.report_path.is_file():
        return
    payload = read_json(paths.report_path, warn=False)
    quarantined: "list[int]" = []
    if isinstance(payload, dict) and payload.get("partial"):
        try:
            quarantined = sorted(
                int(s) for s in payload.get("quarantined_shards", [])
            )
        except (TypeError, ValueError):
            quarantined = []
    # A partial report is legitimate exactly when its quarantined-shard
    # annotation accounts for every missing checkpoint.
    unexplained = [s for s in pending if s not in set(quarantined)]
    if unexplained:
        detail = (
            f"report exists but {len(unexplained)} shard(s) are pending — "
            "it cannot reflect the full campaign"
        )
        if quarantined:
            detail += (
                f" (partial annotation covers only {quarantined}, "
                f"not {unexplained})"
            )
        report.findings.append(
            Finding(
                "error",
                "campaign.report",
                "report.json",
                detail,
                _quarantine(root, paths.report_path, repair),
            )
        )
        return
    if quarantined:
        report.findings.append(
            Finding(
                "info",
                "campaign.report",
                "report.json",
                f"partial report: shard(s) {quarantined} quarantined as "
                "poison and excluded from the aggregate",
            )
        )
    records = []
    for shard in range(spec.n_shards):
        if shard in set(quarantined):
            continue
        records.extend(read_json(paths.shard_path(shard), warn=False)["records"])
    expected = (
        json.dumps(
            aggregate_report(spec, records, quarantined=quarantined),
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )
    try:
        found = paths.report_path.read_text()
    except OSError as error:
        found = None
        detail = f"unreadable ({error})"
    else:
        detail = "report does not match the aggregate of the checkpoints"
    if found == expected:
        report.healthy += 1
        return
    action = None
    if repair:
        atomic_write_json(
            paths.report_path,
            aggregate_report(spec, records, quarantined=quarantined),
        )
        action = "rewritten"
    report.findings.append(
        Finding("error", "campaign.report", "report.json", detail, action)
    )


# ----------------------------------------------------------------------
# Work-queue checks.
# ----------------------------------------------------------------------

def _check_queue(
    root: Path,
    paths: CampaignPaths,
    spec: CampaignSpec,
    digest: str,
    pending: list,
    report: DoctorReport,
    repair: bool,
) -> None:
    """Validate the (derivable) queue against the checkpoints.

    :func:`repro.campaign.queue.audit` does the checking and repairing;
    a database it cannot use at all is quarantined — the coordinator
    rebuilds the queue from the checkpoints on its next boot.
    """
    path = paths.queue_db_path
    if not path.is_file():
        return
    relative = _relative(root, path)
    completed = set(range(spec.n_shards)) - set(pending)
    try:
        issues = audit(path, digest, spec.n_shards, completed, repair=repair)
    except QueueError as error:
        report.findings.append(
            Finding(
                "error",
                "campaign.queue",
                relative,
                str(error),
                _quarantine(root, path, repair),
            )
        )
        return
    report.findings.extend(
        Finding(severity, "campaign.queue", relative, detail, action)
        for severity, detail, action in issues
    )
    if all(severity == "info" for severity, _, _ in issues):
        report.healthy += 1
