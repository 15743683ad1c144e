"""The shard broker: one set of lease-and-finish rules per campaign.

A :class:`ShardBroker` works a campaign directory's :class:`WorkQueue`
— the campaign's one record of its shards — under every rule for
handing them out.  The coordinator daemon answers its endpoints with
broker calls, and a worker joining the directory itself uses a broker
as its transport:

* **claim** leases the lowest open shard;
* **complete** stores the shard's validated, write-once result and
  marks its row done, in one transaction
  (:meth:`~repro.campaign.runner.Campaign.write_shard_checkpoint`);
* **fail** re-opens or quarantines the shard and emits a
  ``campaign.shard.fail`` event;
* **finish** — after opening, after a claim that finds nothing, and
  after a completion or quarantine — writes ``report.json`` once no
  shard is unresolved (partial when some are quarantined), and only
  then reports complete.  An existing ``report.json`` is never taken as
  proof: a stale one cannot outlive a recomputed shard.  Reading the
  results for the report resets any row whose result turns out
  unusable, so that shard is claimed and recomputed.

Brokering state is disposable and the rows are the truth, so several
brokers (a coordinator, directory joiners in other processes) may work
one campaign at once: each finisher writes the same bytes.
"""

from __future__ import annotations

import threading

from ..obs import active as _telemetry
from ..obs import tracing
from .queue import DEFAULT_LEASE_TTL, DEFAULT_QUARANTINE_AFTER, Lease
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
        self.queue = campaign.queue(
            lease_ttl=lease_ttl, quarantine_after=quarantine_after
        )
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
        if lease is None:
            self._finish()
        return lease

    def heartbeat(self, lease: Lease) -> "Lease | None":
        return self.queue.heartbeat(lease)

    def release(self, lease: Lease) -> None:
        self.queue.release(lease)

    def complete_shard(self, lease: Lease, records: list) -> bool:
        """Store ``records`` as the shard's result (once) and mark its
        row done; whether ``lease`` still owned the shard."""
        owned = self.campaign.write_shard_checkpoint(lease.shard, records, lease)
        self._finish(changed=True)
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
        complete; ``changed`` (a result landed, a shard was quarantined)
        re-checks an already finished campaign."""
        with self._lock:
            if self._complete.is_set() and not changed:
                return
            if self.queue.unresolved():
                return
            quarantined = self.queue.quarantined()
            try:
                self.campaign.write_report(quarantined=quarantined)
            except CampaignError:
                # A done row's result was unusable: reading it reset the
                # row, and the shard is claimable again.
                return
            self._complete.set()
            tel = _telemetry()
            tel.count("campaign.report.written")
            if quarantined:
                tel.count("campaign.report.partial")

    def close(self) -> None:
        self.campaign.close()
