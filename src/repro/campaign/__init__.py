"""``repro.campaign`` — resumable, sharded random-instance survey campaigns.

The paper's separation results are proved on hand-built gadgets;
statistically meaningful coverage of the 24-model taxonomy needs
*populations* of random instances, which means multi-hour sweeps that
must survive crashes.  A campaign is defined entirely by a JSON
:class:`~repro.campaign.spec.CampaignSpec` (generator parameters, seed,
model set, bounds, shard size); :class:`~repro.campaign.runner.Campaign`
materializes a manifest plus per-shard checkpoints under a campaign
directory, executes shards through the retrying parallel fan-out, and
aggregates the checkpoints into a survey report with per-model
oscillation/convergence rates and Wilson confidence intervals.

Interrupt-safety is the design center: checkpoints are atomic,
write-once, and keyed by the spec digest, every task is a pure function
of the spec, and the report is a pure function of the checkpoints — so
``repro campaign run`` after a SIGKILL reproduces the uninterrupted
report byte for byte.

Campaigns also scale *across hosts*: shards become leasable rows in
one durable SQLite table, the :mod:`~repro.campaign.queue` in the
campaign directory's ``queue.sqlite``.  Workers on the same host (or a
shared disk with reliable locks) pull from it directly; every other
host joins by URL a :mod:`~repro.campaign.coordinator` daemon
(``repro campaign serve``), which then alone opens the queue.  Any
number of ``repro campaign join`` workers can pull shards — dead
workers' leases are reclaimed after a heartbeat timeout, and the
write-once determinism above makes the multi-host report byte-identical
to a single-host run.

Library users should go through :mod:`repro.campaign.api`
(:class:`~repro.campaign.api.CampaignHandle` plus ``create / attach /
run / serve / join / status / report``) rather than the lower-level
modules.  See ``docs/api.md`` and ``docs/distributed.md``.
"""

from .api import CampaignHandle, attach, create
from .coordinator import CampaignCoordinator
from .manifest import CAMPAIGN_SCHEMA, CampaignPaths, build_manifest
from .queue import Lease, QueueError, WorkQueue
from .report import aggregate_report, render_report
from .runner import Campaign, CampaignError, compute_shard_records
from .spec import MODES, CampaignSpec, spec_digest
from .worker import join

__all__ = [
    "CAMPAIGN_SCHEMA",
    "Campaign",
    "CampaignCoordinator",
    "CampaignError",
    "CampaignHandle",
    "CampaignPaths",
    "CampaignSpec",
    "Lease",
    "MODES",
    "QueueError",
    "WorkQueue",
    "aggregate_report",
    "attach",
    "build_manifest",
    "compute_shard_records",
    "create",
    "join",
    "render_report",
    "spec_digest",
]
