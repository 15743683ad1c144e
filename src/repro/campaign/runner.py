"""The resumable campaign runner.

:class:`Campaign` executes a :class:`~repro.campaign.spec.CampaignSpec`
shard by shard.  Each shard is one retrying fan-out
(:func:`repro.engine.parallel.parallel_map_retrying` — per-task retry
with exponential backoff over worker crashes and hangs) whose records
are checkpointed atomically on completion.  ``run`` after an
interruption — a SIGKILL of the CLI, a crashed worker, a power cut —
therefore picks up at the first shard without a valid checkpoint; the
shared verdict cache under the campaign directory turns the re-run of a
half-finished shard into mostly cache hits.

Determinism: every task is a pure function of ``(spec, seed, model)``,
checkpoints hold no wall-clock or scheduling metadata, and the report
aggregates records in manifest order — so an interrupted-then-resumed
campaign's ``report.json`` is byte-identical to an uninterrupted one.
Retries and cache hits are visible in the telemetry counters
(``parallel.task.retry``, ``cache.hit``/``cache.miss``) instead.
"""

from __future__ import annotations

from functools import partial

from ..engine.parallel import (
    ExplorationTask,
    SimulationTask,
    _explore_grouped,
    _simulate_batch,
    parallel_map_retrying,
)
from ..faults import fault_point
from ..fsutil import quarantine_on_repair, sweep_orphan_temps
from ..obs import active as _telemetry
from ..obs import trace_span
from .manifest import (
    CAMPAIGN_SCHEMA,
    CampaignPaths,
    artifact_text,
    atomic_write_json,
    build_manifest,
    checkpoint_issue,
    read_json,
)
from .queue import QueueError
from .queue import audit as audit_queue
from .report import aggregate_report, render_report
from .spec import CampaignSpec, spec_digest

__all__ = ["Campaign", "CampaignError", "compute_shard_records", "shard_tasks"]

#: Keys of an ExplorationResult's dict form that enter a checkpoint.
#: ``cache`` (hit/miss) is deliberately absent: it depends on execution
#: history, and checkpoints must only hold history-independent facts.
_RESULT_KEYS = (
    "oscillates",
    "complete",
    "states_explored",
    "truncated_states",
    "states_pruned",
    "witness_period",
)


class CampaignError(RuntimeError):
    """A campaign directory is missing, foreign, or inconsistent."""

    #: The coordinator answers it as a conflict.
    status = 409


def shard_tasks(
    spec: CampaignSpec, shard: int, cache_dir: "str | None"
) -> "tuple[list, list]":
    """One shard's (tasks, per-task metadata), in checkpoint order.

    A pure function of the spec — usable without a campaign directory,
    which is what lets a ``campaign join`` worker on another host
    compute shards it received over the wire.
    """
    config = spec.run_config(cache_dir=cache_dir if spec.cache else None)
    tasks, meta = [], []
    for seed in spec.shard_seeds(shard):
        instance = spec.instance_for_seed(seed)
        for name in spec.model_names():
            if spec.mode == "explore":
                tasks.append(
                    ExplorationTask.from_config(
                        instance,
                        name,
                        config,
                        reliable_twin_first=spec.reliable_twin_first,
                    )
                )
            else:
                tasks.append(
                    SimulationTask.from_config(
                        instance,
                        name,
                        config,
                        seeds=tuple(range(spec.seeds_per_instance)),
                        drop_prob=spec.drop_prob,
                    )
                )
            meta.append((seed, instance.name, name))
    return tasks, meta


def compute_shard_records(
    spec: CampaignSpec,
    shard: int,
    *,
    workers: "int | None" = None,
    cache_dir: "str | None" = None,
) -> list:
    """Execute one shard of ``spec`` and return its checkpoint records.

    The records are a pure function of ``(spec, shard)`` — worker
    width, cache location, retries, and which host ran them leave no
    trace in the output, which is what makes multi-host reports
    byte-identical to single-host ones.
    """
    fault_point("campaign.shard", shard)
    tasks, meta = shard_tasks(spec, shard, cache_dir)
    fan_out = partial(
        parallel_map_retrying,
        workers=workers,
        retries=spec.retries,
        backoff=spec.retry_backoff,
        task_timeout=spec.task_timeout,
    )
    with trace_span("campaign.shard", shard=shard):
        if spec.mode == "explore":
            results = _explore_grouped(fan_out, tasks)
        else:
            results = fan_out(_simulate_batch, tasks)
    records = []
    for (seed, instance_name, model_name), result in zip(meta, results):
        record = {"seed": seed, "instance": instance_name, "model": model_name}
        if spec.mode == "explore":
            data = result.as_dict()
            record["result"] = {key: data[key] for key in _RESULT_KEYS}
        else:
            record["outcomes"] = [list(outcome) for outcome in result]
        records.append(record)
    return records


class Campaign:
    """A campaign directory plus the spec that defines it.

    Constructing one touches nothing on disk; :meth:`create` and
    :meth:`open` also sweep the stale atomic-write tempfiles of a
    crashed previous run (age-gated, so a concurrently live writer is
    never raced).
    """

    def __init__(self, directory, spec: CampaignSpec) -> None:
        self.paths = CampaignPaths(directory)
        self.spec = spec
        self.digest = spec_digest(spec)

    # -- construction ---------------------------------------------------
    @classmethod
    def create(cls, directory, spec: CampaignSpec) -> "Campaign":
        """Materialize (or re-open) the campaign directory for ``spec``.

        Idempotent: creating on top of an existing directory with the
        same spec digest simply re-opens it (that is how ``campaign
        run`` doubles as resume); a different digest raises
        :class:`CampaignError` rather than mixing two campaigns'
        results.
        """
        campaign = cls(directory, spec)
        sweep_orphan_temps(campaign.paths.directory)
        existing = read_json(campaign.paths.spec_path)
        if existing is not None:
            found = spec_digest(CampaignSpec.from_dict(existing))
            if found != campaign.digest:
                raise CampaignError(
                    f"{campaign.paths.directory} already holds campaign "
                    f"{found[:12]}, refusing to overwrite with {campaign.digest[:12]}"
                )
            return campaign
        atomic_write_json(campaign.paths.spec_path, spec.as_dict())
        atomic_write_json(campaign.paths.manifest_path, build_manifest(spec))
        return campaign

    @classmethod
    def open(cls, directory) -> "Campaign":
        """Open an existing campaign directory (for resume/status/report)."""
        paths = CampaignPaths(directory)
        data = read_json(paths.spec_path)
        if data is None:
            raise CampaignError(f"no campaign at {paths.directory} (missing spec.json)")
        sweep_orphan_temps(paths.directory)
        return cls(directory, CampaignSpec.from_dict(data))

    # -- shard bookkeeping ----------------------------------------------
    def _checkpoint(
        self, shard: int, *, warn: bool = True
    ) -> "tuple[list | None, str | None]":
        """``(records, None)`` for a valid checkpoint of ``shard``, else
        ``(None, why)`` — the shard is then pending."""
        payload = read_json(self.paths.shard_path(shard), warn=warn)
        issue = checkpoint_issue(
            payload, self.digest, shard, self.spec.shard_task_count(shard)
        )
        return (None, issue) if issue is not None else (payload["records"], None)

    def _shard_records(self, shard: int) -> "list | None":
        """The checkpointed records of ``shard``, or ``None`` if pending."""
        return self._checkpoint(shard)[0]

    def completed_shards(self) -> list:
        return [
            shard
            for shard in range(self.spec.n_shards)
            if self._shard_records(shard) is not None
        ]

    def pending_shards(self) -> list:
        return [
            shard
            for shard in range(self.spec.n_shards)
            if self._shard_records(shard) is None
        ]

    # -- execution -------------------------------------------------------
    def _shard_tasks(self, shard: int) -> "tuple[list, list]":
        """The shard's (tasks, per-task metadata), in checkpoint order."""
        cache_dir = str(self.paths.cache_dir) if self.spec.cache else None
        return shard_tasks(self.spec, shard, cache_dir)

    def write_shard_checkpoint(self, shard: int, records: list) -> None:
        """Atomically checkpoint ``records`` as the result of ``shard``.

        Records are validated against the spec (count) before the write,
        so a truncated or foreign record list never lands on disk —
        this is the write-back path for both local execution and
        records received from remote ``join`` workers.
        """
        expected = self.spec.shard_task_count(shard)
        if not isinstance(records, list) or len(records) != expected:
            raise CampaignError(
                f"shard {shard} expects {expected} records, "
                f"got {len(records) if isinstance(records, list) else type(records).__name__}"
            )
        atomic_write_json(
            self.paths.shard_path(shard),
            {
                "schema": CAMPAIGN_SCHEMA,
                "digest": self.digest,
                "shard": shard,
                "records": records,
            },
        )
        tel = _telemetry()
        tel.count("campaign.shard.completed")
        tel.count("campaign.task.completed", len(records))
        tel.heartbeat("campaign", shard=shard, tasks=len(records))

    def run_shard(self, shard: int, workers: "int | None" = None) -> list:
        """Execute one shard and checkpoint it; returns its records."""
        cache_dir = str(self.paths.cache_dir) if self.spec.cache else None
        records = compute_shard_records(
            self.spec, shard, workers=workers, cache_dir=cache_dir
        )
        self.write_shard_checkpoint(shard, records)
        return records

    def run(
        self,
        workers: "int | None" = None,
        max_shards: "int | None" = None,
    ) -> list:
        """Execute pending shards (at most ``max_shards``); returns their ids.

        Finishing the last pending shard also (re)writes ``report.json``.
        Idempotent: on a complete campaign it executes nothing and
        refreshes the report, which is why ``run`` doubles as resume.
        """
        # Resolve the worker width exactly once: $REPRO_WORKERS changing
        # mid-campaign must not reshape later shards' fan-outs.
        workers = (
            self.spec.run_config(cache_dir=None)
            .replace(workers=workers)
            .resolved_workers()
        )
        executed = []
        for shard in self.pending_shards():
            if max_shards is not None and len(executed) >= max_shards:
                break
            self.run_shard(shard, workers=workers)
            executed.append(shard)
        if not self.pending_shards():
            self.write_report()
        return executed

    # -- inspection ------------------------------------------------------
    def status(self) -> dict:
        completed = []
        discarded = 0
        for shard in range(self.spec.n_shards):
            if self._shard_records(shard) is not None:
                completed.append(shard)
            elif self.paths.shard_path(shard).is_file():
                # A checkpoint exists but cannot be used: corrupt bytes,
                # a foreign digest, or a truncated record list.
                discarded += 1
        models = len(self.spec.model_names())
        tasks_done = sum(self.spec.shard_task_count(shard) for shard in completed)
        return {
            "name": self.spec.name,
            "digest": self.digest,
            "mode": self.spec.mode,
            "directory": str(self.paths.directory),
            "shards_total": self.spec.n_shards,
            "shards_completed": len(completed),
            "shards_pending": self.spec.n_shards - len(completed),
            "checkpoints_discarded": discarded,
            "tasks_total": self.spec.count * models,
            "tasks_completed": tasks_done,
            "report_written": self.paths.report_path.is_file(),
        }

    def records(self, ignore=()) -> list:
        """All checkpointed records in manifest order (complete campaigns).

        ``ignore`` names shards excluded from the requirement and the
        result — the quarantined shards of a partial campaign.
        """
        ignore = {int(shard) for shard in ignore}
        records, pending = [], []
        for shard in range(self.spec.n_shards):
            if shard in ignore:
                continue
            shard_records = self._shard_records(shard)
            if shard_records is None:
                pending.append(shard)
            else:
                records.extend(shard_records)
        if pending:
            raise CampaignError(
                f"campaign incomplete: shard(s) {pending} still pending "
                "(run `repro campaign resume` first)"
            )
        return records

    def report(self, quarantined=()) -> dict:
        """The aggregate survey report (requires every shard done, minus
        ``quarantined`` — which stamp the report as partial)."""
        return aggregate_report(
            self.spec, self.records(ignore=quarantined), quarantined=quarantined
        )

    def write_report(self, quarantined=()) -> dict:
        report = self.report(quarantined)
        atomic_write_json(self.paths.report_path, report)
        return report

    def current_report(self) -> dict:
        """The written report if it is partial, else :meth:`report`.

        A partial report (quarantined poison shards) is authoritative:
        recomputing would refuse on its pending-but-quarantined shards.
        """
        written = read_json(self.paths.report_path)
        if written is not None and written.get("partial"):
            return written
        return self.report()

    def render_report(self) -> str:
        return render_report(self.current_report())

    # -- audit (``repro doctor``) -----------------------------------------
    def audit(self, *, repair: bool = False) -> "tuple[int, list]":
        """Check the manifest, checkpoints, work queue and report against
        the spec, with the same rules the runner reads them by.

        Returns ``(healthy, issues)`` like :func:`repro.engine.cache.audit`:
        the number of healthy artifacts, and ``(severity, category, path,
        detail, repair)`` tuples with ``path`` relative to the campaign
        directory.  With ``repair``, derivable artifacts (the manifest, a
        stale report) are ``"rewritten"``, unusable ones
        ``"quarantined"``, and the queue is mended by
        :func:`repro.campaign.queue.audit`; without it nothing is written.
        """
        issues = []
        healthy = self._audit_manifest(issues, repair)
        completed = self._audit_shards(issues, repair)
        pending = [s for s in range(self.spec.n_shards) if s not in completed]
        healthy += len(completed)
        healthy += self._audit_queue(completed, issues, repair)
        healthy += self._audit_report(pending, issues, repair)
        return healthy, issues

    def _relative(self, path) -> str:
        return str(path.relative_to(self.paths.directory))

    def _audit_manifest(self, issues: list, repair: bool) -> int:
        expected = build_manifest(self.spec)
        manifest = read_json(self.paths.manifest_path, warn=False)
        if manifest == expected:
            return 1
        if manifest is None:
            detail = "missing or corrupt"
        elif manifest.get("digest") != self.digest:
            detail = (
                f"digest {str(manifest.get('digest', ''))[:12]!r} does not match "
                f"spec digest {self.digest[:12]!r}"
            )
        else:
            detail = "content does not match the spec-derived shard table"
        action = None
        if repair:
            atomic_write_json(self.paths.manifest_path, expected)
            action = "rewritten"
        issues.append((
            "error", "campaign.manifest",
            self._relative(self.paths.manifest_path), detail, action,
        ))
        return 0

    def _audit_shards(self, issues: list, repair: bool) -> set:
        """Validate every file in ``shards/``; the valid checkpoints' ids."""
        directory = self.paths.directory
        completed = set()
        entries = (
            sorted(self.paths.shards_dir.iterdir())
            if self.paths.shards_dir.is_dir()
            else []
        )
        for entry in entries:
            if not entry.is_file() or entry.name.startswith("."):
                continue
            shard = self.paths.shard_of(entry)
            if shard is None:
                severity = "warning"
                detail = "foreign file in shards/ (not a checkpoint)"
            elif shard >= self.spec.n_shards:
                severity = "error"
                detail = (
                    f"shard id {shard} out of range "
                    f"(spec has {self.spec.n_shards} shards)"
                )
            else:
                _, issue = self._checkpoint(shard, warn=False)
                if issue is None:
                    completed.add(shard)
                    continue
                severity = "error"
                detail = (
                    f"unusable checkpoint: {issue} — the shard will re-run "
                    "on resume"
                )
            issues.append((
                severity, "campaign.shard", self._relative(entry), detail,
                quarantine_on_repair(directory, entry, repair),
            ))
        pending = self.spec.n_shards - len(completed)
        if pending:
            issues.append((
                "info", "campaign.pending",
                f"{self._relative(self.paths.shards_dir)}/",
                f"{pending} of {self.spec.n_shards} shard(s) pending — "
                f"finish with: repro campaign resume {directory}",
                None,
            ))
        return completed

    def _audit_queue(self, completed: set, issues: list, repair: bool) -> int:
        """The (derivable) queue against the checkpoints; a database that
        cannot be used at all is quarantined — the next broker to open
        rebuilds the queue from the checkpoints."""
        path = self.paths.queue_db_path
        if not path.is_file():
            return 0
        relative = self._relative(path)
        try:
            found = audit_queue(
                path, self.digest, self.spec.n_shards, completed, repair=repair
            )
        except QueueError as error:
            issues.append((
                "error", "campaign.queue", relative, str(error),
                quarantine_on_repair(self.paths.directory, path, repair),
            ))
            return 0
        issues.extend(
            (severity, "campaign.queue", relative, detail, action)
            for severity, detail, action in found
        )
        return int(all(severity == "info" for severity, _, _ in found))

    def _audit_report(self, pending: list, issues: list, repair: bool) -> int:
        """``report.json`` against the aggregate of the checkpoints.

        A partial report is legitimate exactly when its
        ``quarantined_shards`` account for every pending shard.
        """
        path = self.paths.report_path
        if not path.is_file():
            return 0
        relative = self._relative(path)
        written = read_json(path, warn=False)
        quarantined: "list[int]" = []
        if isinstance(written, dict) and written.get("partial"):
            try:
                quarantined = sorted(
                    int(s) for s in written.get("quarantined_shards", [])
                )
            except (TypeError, ValueError):
                quarantined = []
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
            issues.append((
                "error", "campaign.report", relative, detail,
                quarantine_on_repair(self.paths.directory, path, repair),
            ))
            return 0
        if quarantined:
            issues.append((
                "info", "campaign.report", relative,
                f"partial report: shard(s) {quarantined} quarantined as "
                "poison and excluded from the aggregate",
                None,
            ))
        expected = self.report(quarantined)
        try:
            found = path.read_text()
        except OSError as error:
            found = None
            detail = f"unreadable ({error})"
        else:
            detail = "report does not match the aggregate of the checkpoints"
        if found == artifact_text(expected):
            return 1
        action = None
        if repair:
            atomic_write_json(path, expected)
            action = "rewritten"
        issues.append(("error", "campaign.report", relative, detail, action))
        return 0
