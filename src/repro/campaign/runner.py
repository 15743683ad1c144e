"""The resumable campaign runner.

:class:`Campaign` executes a :class:`~repro.campaign.spec.CampaignSpec`
shard by shard.  Each shard is one retrying fan-out
(:func:`repro.engine.parallel.parallel_map_retrying` — per-task retry
with exponential backoff over worker crashes and hangs) whose records
are stored, checksummed, in the shard's
:class:`~repro.campaign.queue.WorkQueue` row by the transaction that
marks it done.  ``run`` after an
interruption — a SIGKILL of the CLI, a crashed worker, a power cut —
therefore picks up at the first shard without a usable result; the
shared verdict cache under the campaign directory turns the re-run of
a half-finished shard into mostly cache hits.

Determinism: every task is a pure function of ``(spec, seed, model)``,
stored results hold no wall-clock or scheduling metadata, and the
report aggregates records in manifest order — so an
interrupted-then-resumed campaign's ``report.json`` is byte-identical
to an uninterrupted one.
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
from ..fsutil import quarantine_on_repair, sweep_orphan_temps, write_retrying
from ..obs import active as _telemetry
from ..obs import trace_span
from .manifest import (
    CAMPAIGN_SCHEMA,
    CampaignPaths,
    _discard,
    artifact_text,
    atomic_write_json,
    build_manifest,
    checkpoint_records,
    checkpoint_text,
    read_json,
)
from .queue import Lease, QueueError, WorkQueue
from .queue import audit as audit_queue
from .report import aggregate_report, render_report
from .spec import CampaignSpec, spec_digest

__all__ = ["Campaign", "CampaignError", "compute_shard_records", "shard_tasks"]

#: Keys of an ExplorationResult's dict form that enter a shard result.
#: ``cache`` (hit/miss) is deliberately absent: it depends on execution
#: history, and results must only hold history-independent facts.
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
    """One shard's (tasks, per-task metadata), in record order.

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
    """Execute one shard of ``spec`` and return its records.

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
        self._queue: "WorkQueue | None" = None

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
            _check_schema(campaign.paths)
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
        _check_schema(paths)
        sweep_orphan_temps(paths.directory)
        return cls(directory, CampaignSpec.from_dict(data))

    # -- shard bookkeeping ----------------------------------------------
    def queue(self, **settings) -> WorkQueue:
        """The work queue — the one record of the campaign's shards —
        opened on first use with every shard enrolled; ``settings``
        other than the open queue's reopen it."""
        queue = self._queue
        if queue is None or any(
            getattr(queue, name) != value for name, value in settings.items()
        ):
            self.close()
            queue = WorkQueue(self.paths.queue_db_path, self.digest, **settings)
            queue.enroll(range(self.spec.n_shards))
            self._queue = queue
        return queue

    def close(self) -> None:
        """Close the work queue (it reopens on next use)."""
        if self._queue is not None:
            self._queue.close()
            self._queue = None

    def _read_result(self, shard: int, text) -> "tuple[list | None, str | None]":
        return checkpoint_records(
            text, self.digest, shard, self.spec.shard_task_count(shard)
        )

    def _results(self) -> "tuple[dict, int]":
        """The records of every usable result by shard id, read in one
        query, and how many were discarded: a done row whose result is
        unusable is warned about, counted, and reset to open."""
        queue = self.queue()
        results, unusable = {}, []
        for shard, text in queue.results().items():
            if not 0 <= shard < self.spec.n_shards:
                continue
            records, issue = self._read_result(shard, text)
            if issue is None:
                results[shard] = records
            else:
                _discard(f"the result of shard {shard} in {queue.path}", issue)
                unusable.append(shard)
        if unusable:
            queue.reset(unusable)
        return results, len(unusable)

    def completed_shards(self) -> list:
        return sorted(self._results()[0])

    def pending_shards(self) -> list:
        results = self._results()[0]
        return [shard for shard in range(self.spec.n_shards) if shard not in results]

    # -- execution -------------------------------------------------------
    def write_shard_checkpoint(
        self, shard: int, records: list, lease: "Lease | None" = None
    ) -> bool:
        """Store ``records`` as the result of ``shard`` (write-once) and
        mark its row done, in one transaction; whether ``lease`` still
        owned the shard (``False`` without a lease).

        Records are validated against the spec (count) before the write,
        so a truncated or foreign record list is never stored — this is
        the write-back path for local execution, directory joins, and
        records received from remote ``join`` workers.
        """
        expected = self.spec.shard_task_count(shard)
        if not isinstance(records, list) or len(records) != expected:
            raise CampaignError(
                f"shard {shard} expects {expected} records, "
                f"got {len(records) if isinstance(records, list) else type(records).__name__}"
            )
        queue = self.queue()
        write = (
            partial(queue.store, shard) if lease is None
            else partial(queue.complete, lease)
        )
        owned = write_retrying(
            write,
            checkpoint_text(self.digest, shard, records),
            fault_site="checkpoint.write",
        )
        tel = _telemetry()
        tel.count("campaign.shard.completed")
        tel.count("campaign.task.completed", len(records))
        tel.heartbeat("campaign", shard=shard, tasks=len(records))
        return bool(owned)

    def run_shard(self, shard: int, workers: "int | None" = None) -> list:
        """Execute one shard and store its result; returns its records."""
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
        results, discarded = self._results()
        models = len(self.spec.model_names())
        tasks_done = sum(self.spec.shard_task_count(shard) for shard in results)
        return {
            "name": self.spec.name,
            "digest": self.digest,
            "mode": self.spec.mode,
            "directory": str(self.paths.directory),
            "shards_total": self.spec.n_shards,
            "shards_completed": len(results),
            "shards_pending": self.spec.n_shards - len(results),
            "checkpoints_discarded": discarded,
            "tasks_total": self.spec.count * models,
            "tasks_completed": tasks_done,
            "report_written": self.paths.report_path.is_file(),
        }

    def records(self, ignore=()) -> list:
        """All stored records in manifest order (complete campaigns).

        ``ignore`` names shards excluded from the requirement and the
        result — the quarantined shards of a partial campaign.
        """
        return self._collect(self._results()[0], ignore)

    def _collect(self, results: dict, ignore=()) -> list:
        ignore = {int(shard) for shard in ignore}
        shards = [s for s in range(self.spec.n_shards) if s not in ignore]
        pending = [shard for shard in shards if shard not in results]
        if pending:
            raise CampaignError(
                f"campaign incomplete: shard(s) {pending} still pending "
                "(run `repro campaign resume` first)"
            )
        return [record for shard in shards for record in results[shard]]

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
        """Check the manifest, the shard rows of the work queue and the
        report against the spec, with the same rules the runner reads
        them by.

        Returns ``(healthy, issues)`` like :func:`repro.engine.cache.audit`:
        the number of healthy artifacts, and ``(severity, category, path,
        detail, repair)`` tuples with ``path`` relative to the campaign
        directory.  With ``repair``, derivable artifacts (the manifest, a
        stale report) are ``"rewritten"``, unusable files
        ``"quarantined"``, and the queue is mended by
        :func:`repro.campaign.queue.audit`; without it nothing is
        written (and no queue is created).
        """
        issues = []
        healthy = self._audit_manifest(issues, repair)
        results, queue_healthy = self._audit_queue(issues, repair)
        pending = [s for s in range(self.spec.n_shards) if s not in results]
        if pending:
            issues.append((
                "info", "campaign.pending",
                self._relative(self.paths.queue_db_path),
                f"{len(pending)} of {self.spec.n_shards} shard(s) pending — "
                f"finish with: repro campaign resume {self.paths.directory}",
                None,
            ))
        healthy += len(results) + queue_healthy
        healthy += self._audit_report(results, pending, issues, repair)
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

    def _audit_queue(self, issues: list, repair: bool) -> "tuple[dict, int]":
        """The shard rows: the records of every usable result, and
        whether the queue is healthy.  A database that cannot be used at
        all is quarantined — its shards then re-run."""
        path = self.paths.queue_db_path
        if not path.is_file():
            return {}, 0
        relative = self._relative(path)
        try:
            found, results = audit_queue(
                path, self.digest, self.spec.n_shards, self._read_result,
                repair=repair,
            )
        except QueueError as error:
            issues.append((
                "error", "campaign.queue", relative, str(error),
                quarantine_on_repair(self.paths.directory, path, repair),
            ))
            return {}, 0
        issues.extend(
            (severity, "campaign.queue", relative, detail, action)
            for severity, detail, action in found
        )
        return results, int(all(severity == "info" for severity, _, _ in found))

    def _audit_report(
        self, results: dict, pending: list, issues: list, repair: bool
    ) -> int:
        """``report.json`` against the aggregate of the stored results.

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
        expected = aggregate_report(
            self.spec, self._collect(results, quarantined), quarantined=quarantined
        )
        try:
            found = path.read_text()
        except OSError as error:
            found = None
            detail = f"unreadable ({error})"
        else:
            detail = "report does not match the aggregate of the stored results"
        if found == artifact_text(expected):
            return 1
        action = None
        if repair:
            atomic_write_json(path, expected)
            action = "rewritten"
        issues.append(("error", "campaign.report", relative, detail, action))
        return 0


def _check_schema(paths: CampaignPaths) -> None:
    """Refuse a directory whose manifest has another campaign schema."""
    schema = (read_json(paths.manifest_path, warn=False) or {}).get("schema")
    if schema not in (None, CAMPAIGN_SCHEMA):
        raise CampaignError(
            f"{paths.directory} holds a schema-{schema} campaign; this "
            f"version reads schema {CAMPAIGN_SCHEMA} only (shard results "
            "moved into queue.sqlite) — run its spec into a new directory"
        )
