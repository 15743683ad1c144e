"""The shard broker: one set of lease-and-finish rules per campaign.

A :class:`ShardBroker` owns a campaign directory's :class:`WorkQueue`
and every rule for handing its shards out.  The coordinator daemon
answers its endpoints with broker calls, and a worker joining the
directory itself uses a broker as its transport:

* **open** enrolls every shard (checkpointed ones done) and resets
  ``done`` rows without a valid checkpoint (``campaign.queue.reconciled``);
* **claim** leases the lowest open shard, completing on the spot a
  shard whose checkpoint already landed;
* **complete** writes the validated write-once checkpoint under a lock,
  then marks the row done — ``done`` never precedes a durable checkpoint;
* **fail** re-opens or quarantines the shard and emits a
  ``campaign.shard.fail`` event;
* **finish** — after opening, after a claim that finds nothing, and
  after a completion or quarantine — writes ``report.json`` once no
  shard is unresolved (partial when some are quarantined), and only
  then reports complete.  An existing ``report.json`` is never taken as
  proof: a stale one cannot outlive a recomputed shard.

Brokering state is disposable and the checkpoints are the truth, so
several brokers (a coordinator, directory joiners in other processes)
may work one campaign at once: each finisher writes the same bytes.
"""

from __future__ import annotations

import threading

from ..obs import active as _telemetry
from ..obs import tracing
from .queue import DEFAULT_LEASE_TTL, DEFAULT_QUARANTINE_AFTER, Lease, WorkQueue
from .runner import Campaign, CampaignError

__all__ = ["ShardBroker"]


class ShardBroker:
    """A campaign's work queue plus the rules every transport shares."""

    def __init__(
        self,
        campaign: Campaign,
        *,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        quarantine_after: int = DEFAULT_QUARANTINE_AFTER,
    ) -> None:
        self.campaign = campaign
        self.queue = WorkQueue(
            campaign.paths.queue_db_path,
            campaign.digest,
            lease_ttl=lease_ttl,
            quarantine_after=quarantine_after,
        )
        done = campaign.completed_shards()
        self.queue.enroll(range(campaign.spec.n_shards), done=done)
        stale = sorted(set(self.queue.done_shards()) - set(done))
        if stale:
            self.queue.reset(stale)
            _telemetry().count("campaign.queue.reconciled", len(stale))
        # Shards this broker has seen checkpointed.  Checkpoints are
        # write-once, so finishing re-reads only the others.
        self._durable = set(done)
        self._lock = threading.Lock()
        self._complete = threading.Event()
        self._finish()

    @property
    def lease_ttl(self) -> float:
        return self.queue.lease_ttl

    @property
    def complete(self) -> bool:
        """Whether this broker has written the report of a campaign with
        no unresolved shard left."""
        return self._complete.is_set()

    def wait_complete(self, timeout: "float | None" = None) -> bool:
        return self._complete.wait(timeout)

    # -- the lease protocol ------------------------------------------------
    def claim(self, worker: str) -> "Lease | None":
        """A lease on a shard that still needs computing, or ``None``."""
        lease = self.queue.claim(worker)
        if lease is not None and self.campaign._shard_records(lease.shard) is not None:
            # Checkpointed behind the queue's back (a crash between the
            # two writes, or another joiner): complete without recompute.
            self._durable.add(lease.shard)
            self.queue.complete(lease)
            lease = None
        if lease is None:
            self._finish()
        return lease

    def heartbeat(self, lease: Lease) -> "Lease | None":
        return self.queue.heartbeat(lease)

    def release(self, lease: Lease) -> None:
        self.queue.release(lease)

    def complete_shard(self, lease: Lease, records: list) -> bool:
        """Checkpoint ``records`` as the shard's result (once), then mark
        its row done; whether ``lease`` still owned the shard."""
        with self._lock:
            wrote = self.campaign._shard_records(lease.shard) is None
            if wrote:
                self.campaign.write_shard_checkpoint(lease.shard, records)
            self._durable.add(lease.shard)
        owned = self.queue.complete(lease)
        self._finish(changed=wrote)
        return owned

    def fail(self, lease: Lease, error: str = "") -> str:
        """Record a compute failure; the shard's disposition (``"open"``,
        ``"quarantined"`` or ``"lost"``)."""
        outcome = self.queue.fail(lease)
        _telemetry().event(
            "campaign.shard.fail",
            shard=lease.shard,
            worker=lease.worker,
            outcome=outcome,
            error=str(error)[:500],
        )
        if outcome == "quarantined":
            self._finish(changed=True)
        return outcome

    def traceparent(self, lease: Lease) -> "str | None":
        """A child of the caller's trace context (the thread's, else the
        spawn environment's) for an in-process lease."""
        context = tracing.current() or tracing.from_environment()
        return context.child().to_traceparent() if context else None

    # -- finishing -----------------------------------------------------------
    def _finish(self, changed: bool = False) -> None:
        """Write the report if no shard is unresolved, then report
        complete; ``changed`` (a checkpoint landed, a shard was
        quarantined) re-checks an already finished campaign."""
        with self._lock:
            if self._complete.is_set() and not changed:
                return
            quarantined = self.queue.quarantined()
            for shard in range(self.campaign.spec.n_shards):
                if shard in self._durable or shard in quarantined:
                    continue
                if self.campaign._shard_records(shard) is None:
                    return
                self._durable.add(shard)
            try:
                self.campaign.write_report(quarantined=quarantined)
            except CampaignError:
                # A checkpoint seen durable has gone (quarantined by
                # `repro doctor --repair`): forget what was seen.
                self._durable.clear()
                return
            self._complete.set()
            tel = _telemetry()
            tel.count("campaign.report.written")
            if quarantined:
                tel.count("campaign.report.partial")

    def close(self) -> None:
        self.queue.close()
