"""``repro doctor`` — an fsck for cache and campaign directories.

:func:`diagnose` recognizes a verdict-cache root or a campaign
directory and asks the store that writes each artifact to check it:
:func:`repro.engine.cache.audit` for cache entries (nested ``cache/``
directories included), :meth:`repro.campaign.Campaign.audit` for the
manifest, the work queue's shard rows and the report.  The stores check
by the rules they read by, so the doctor flags exactly what a lookup
or a resume would refuse.  This module itself checks only
``spec.json`` (unrepairable: the spec *is* the campaign's identity)
and orphan atomic-write tempfiles, and gathers the findings into a
:class:`DoctorReport`.

With ``repair=True`` the stores also act: bad files are *quarantined*
(moved to ``<root>/quarantine/``, never deleted), derivable ones (the
manifest, a stale report) are rewritten from their source of truth,
shard rows with an unusable result are reset to open, unusable cache
rows are removed (a lookup recomputes them), and orphan tempfiles are
removed.  The doctor never invents data.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from pathlib import Path

from .campaign.manifest import CampaignPaths, read_json
from .campaign.runner import Campaign
from .campaign.spec import CampaignSpec
from .engine.cache import audit as audit_cache
from .engine.cache import is_cache_root
from .fsutil import find_orphan_temps

__all__ = [
    "DoctorError",
    "DoctorReport",
    "Finding",
    "diagnose",
]


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
    paths = CampaignPaths(root)
    if paths.spec_path.is_file():
        report = DoctorReport(root=str(root), kind="campaign")
        campaign = _open_campaign(paths, report)
        if campaign is not None:
            _record(report, campaign.audit(repair=repair))
            if paths.cache_dir.is_dir():
                _record(
                    report,
                    audit_cache(paths.cache_dir, repair=repair),
                    under=str(paths.cache_dir.relative_to(root)),
                )
    elif is_cache_root(root):
        report = DoctorReport(root=str(root), kind="cache")
        _record(report, audit_cache(root, repair=repair))
    else:
        raise DoctorError(
            f"{root} is neither a campaign directory (no spec.json) nor a "
            "verdict-cache root (no verdict store)"
        )
    _check_orphans(root, report, repair)
    return report


def _record(report: DoctorReport, audit: tuple, under: str = "") -> None:
    """Add one store audit's ``(healthy, issues)`` to ``report``."""
    healthy, issues = audit
    report.healthy += healthy
    report.findings.extend(
        Finding(severity, category, os.path.join(under, path), detail, action)
        for severity, category, path, detail, action in issues
    )


def _open_campaign(paths: CampaignPaths, report: DoctorReport) -> "Campaign | None":
    """The campaign ``spec.json`` defines, or ``None`` (reported) if unusable."""
    payload = read_json(paths.spec_path, warn=False)
    if payload is None:
        detail = (
            "missing or corrupt — the spec is the campaign's identity and "
            "cannot be reconstructed; restore it or restart the campaign"
        )
    else:
        try:
            spec = CampaignSpec.from_dict(payload)
        except (TypeError, ValueError) as error:
            detail = f"invalid spec ({error})"
        else:
            report.healthy += 1
            return Campaign(paths.directory, spec)
    relative = str(paths.spec_path.relative_to(paths.directory))
    report.findings.append(Finding("error", "campaign.spec", relative, detail))
    return None


def _check_orphans(root: Path, report: DoctorReport, repair: bool) -> None:
    for orphan in find_orphan_temps(root):
        action = None
        if repair:
            try:
                orphan.unlink()
                action = "removed"
            except OSError:
                pass
        report.findings.append(Finding(
            "warning", "storage.orphan_temp", str(orphan.relative_to(root)),
            "orphan atomic-write tempfile (crashed writer)", action,
        ))
