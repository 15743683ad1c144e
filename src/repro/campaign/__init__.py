"""``repro.campaign`` — resumable, sharded random-instance survey campaigns.

The paper's separation results are proved on hand-built gadgets;
statistically meaningful coverage of the 24-model taxonomy needs
*populations* of random instances, which means multi-hour sweeps that
must survive crashes.  A campaign is defined entirely by a JSON
:class:`~repro.campaign.spec.CampaignSpec` (generator parameters, seed,
model set, bounds, shard size); :class:`~repro.campaign.runner.Campaign`
materializes a manifest under a campaign directory, executes shards
through the retrying parallel fan-out, and aggregates their results
into a survey report with per-model oscillation/convergence rates and
Wilson confidence intervals.

Every shard is one row of the :mod:`~repro.campaign.queue` in the
directory's ``queue.sqlite``, holding its lease state and, once done,
its checksummed result.  Interrupt-safety is the design center: results
are write-once and keyed by the spec digest, every task is a pure
function of the spec, and the report is a pure function of the rows —
so ``repro campaign run`` after a SIGKILL reproduces the uninterrupted
report byte for byte.

Campaigns also scale *across hosts*: the rows are leased out under the
rules of one :mod:`~repro.campaign.broker`.  Workers on the same host
(or a shared disk with reliable locks) join the directory and broker
their own leases; every other host joins by URL a
:mod:`~repro.campaign.coordinator` daemon (``repro campaign serve``),
which then alone opens the queue.  Any number of ``repro campaign
join`` workers can pull shards — dead workers' leases are reclaimed
after a heartbeat timeout, and the write-once determinism above makes
the multi-host report byte-identical to a single-host run.

Library users should go through :mod:`repro.campaign.api`
(:class:`~repro.campaign.api.CampaignHandle` plus ``create / attach /
run / serve / join / status / report``) rather than the lower-level
modules.  See ``docs/api.md`` and ``docs/distributed.md``.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".api": ["CampaignHandle", "attach", "create"],
        ".coordinator": ["CampaignCoordinator"],
        ".manifest": ["CAMPAIGN_SCHEMA", "CampaignPaths", "build_manifest"],
        ".queue": ["Lease", "QueueError", "WorkQueue"],
        ".report": ["aggregate_report", "render_report"],
        ".runner": ["Campaign", "CampaignError", "compute_shard_records"],
        ".spec": ["MODES", "CampaignSpec", "spec_digest"],
        ".worker": ["join"],
    },
)

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
