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

from ..engine.explorer import _shared_searches
from ..engine.parallel import (
    ExplorationTask,
    SimulationTask,
    _explore_one,
    _simulate_batch,
    parallel_map_retrying,
)
from ..faults import fault_point
from ..fsutil import sweep_orphan_temps
from ..obs import active as _telemetry
from .manifest import (
    CAMPAIGN_SCHEMA,
    CampaignPaths,
    atomic_write_json,
    build_manifest,
    checkpoint_issue,
    read_json,
)
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
    function = _explore_one if spec.mode == "explore" else _simulate_batch
    with _telemetry().span("campaign.shard"), _shared_searches():
        results = parallel_map_retrying(
            function,
            tasks,
            workers=workers,
            retries=spec.retries,
            backoff=spec.retry_backoff,
            task_timeout=spec.task_timeout,
        )
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
    """A campaign directory plus the spec that defines it."""

    def __init__(self, directory, spec: CampaignSpec) -> None:
        self.paths = CampaignPaths(directory)
        self.spec = spec
        self.digest = spec_digest(spec)
        # Stale atomic-write tempfiles from a crashed previous run
        # (age-gated, so a concurrently live writer is never raced).
        sweep_orphan_temps(self.paths.directory)

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
        return cls(directory, CampaignSpec.from_dict(data))

    # -- shard bookkeeping ----------------------------------------------
    def _shard_records(self, shard: int) -> "list | None":
        """The checkpointed records of ``shard``, or ``None`` if pending."""
        payload = read_json(self.paths.shard_path(shard))
        expected = len(self.spec.shard_seeds(shard)) * len(self.spec.model_names())
        if checkpoint_issue(payload, self.digest, shard, expected) is not None:
            return None
        return payload["records"]

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
        expected = len(self.spec.shard_seeds(shard)) * len(self.spec.model_names())
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
        tasks_done = sum(
            len(self.spec.shard_seeds(shard)) * models for shard in completed
        )
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
        pending = [s for s in self.pending_shards() if s not in ignore]
        if pending:
            raise CampaignError(
                f"campaign incomplete: shard(s) {pending} still pending "
                "(run `repro campaign resume` first)"
            )
        records = []
        for shard in range(self.spec.n_shards):
            if shard in ignore:
                continue
            shard_records = self._shard_records(shard)
            if shard_records is not None:
                records.extend(shard_records)
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

    def render_report(self) -> str:
        report = read_json(self.paths.report_path)
        if report is not None and report.get("partial"):
            return render_report(report)
        return render_report(self.report())
