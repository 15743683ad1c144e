"""The chaos acceptance property, in-process.

Under *any* fault plan, a campaign either completes or aborts cleanly —
and whatever survives on disk resumes to a ``report.json`` byte-identical
to a fault-free run.  Each test arms one plan around a whole campaign
and asserts exactly that.

Marked ``chaos``: whole campaigns per test keep this off the default
(tier-1) run; CI's chaos-smoke job selects it with ``-m chaos``.
"""

import pytest

from repro import faults
from repro.campaign import Campaign, CampaignSpec
from repro.faults import FaultPlan
from repro.fsutil import ENOSPC_RETRIES
from repro.obs import Telemetry, install

from ..campaign.rows import stored_result

pytestmark = pytest.mark.chaos

SPEC = CampaignSpec(
    name="chaos", count=4, models=("R1O", "RMS"), shard_size=2,
    n_nodes=4, queue_bound=2, step_bound=20000,
    retries=2, retry_backoff=0.01,
)


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    """report.json bytes of a fault-free run of SPEC."""
    directory = tmp_path_factory.mktemp("reference") / "camp"
    Campaign.create(directory, SPEC).run(workers=1)
    return (directory / "report.json").read_bytes()


def stored_rows(directory):
    """The shards whose queue row holds a result."""
    return [s for s in range(SPEC.n_shards) if stored_result(directory, s)]


def _run_under(plan, directory, workers=1):
    campaign = Campaign.create(directory, SPEC)
    with faults.armed(plan) as state:
        campaign.run(workers=workers)
    return campaign, state


@pytest.mark.parametrize(
    "name,rules",
    [
        # A disk that fills up twice, transiently, mid-checkpoint.
        ("enospc-transient",
         ({"site": "checkpoint.write", "kind": "enospc", "times": 2},)),
        # A cache partition that is permanently full: every verdict
        # write fails, the campaign degrades to recompute-always.
        ("cache-enospc-hard",
         ({"site": "cache.write", "kind": "enospc"},)),
        # Silent corruption of every cache entry as it is written:
        # checksums quarantine them on read and verdicts recompute.
        ("cache-bitflip",
         ({"site": "cache.write", "kind": "bitflip"},)),
        # A flaky disk: half of all cache reads error out.
        ("cache-read-flaky",
         ({"site": "cache.read", "kind": "raise", "probability": 0.5},)),
        # A slow device under the telemetry stream and the workers.
        ("latency",
         ({"site": "telemetry.emit", "kind": "latency", "latency_s": 0.001},
          {"site": "worker.run", "kind": "latency", "latency_s": 0.001})),
        # One worker-task crash; the retry layer re-runs it.
        ("worker-transient-crash",
         ({"site": "worker.run", "kind": "raise", "times": 1},)),
    ],
)
def test_campaign_completes_byte_identical_under(name, rules, tmp_path, reference):
    plan = FaultPlan(name=name, seed=0, rules=rules)
    campaign, state = _run_under(plan, tmp_path / name)
    assert campaign.paths.report_path.read_bytes() == reference
    assert state.log, f"plan {name} never fired — the test is vacuous"


def test_campaign_with_telemetry_survives_emit_failures(tmp_path, reference):
    plan = FaultPlan(
        name="telemetry-dies",
        rules=({"site": "telemetry.emit", "kind": "raise", "times": 1},),
    )
    sink = Telemetry(tmp_path / "events.jsonl")
    previous = install(sink)
    try:
        campaign, state = _run_under(plan, tmp_path / "camp")
    finally:
        install(previous)
        sink.close()
    assert campaign.paths.report_path.read_bytes() == reference
    assert sink.counters["telemetry.emit_error"] == 1
    assert state.log


@pytest.mark.parametrize(
    "failing,stored_before_abort",
    [
        # Created under the plan: the spec and manifest land, then
        # shard 0's result write is the first to fail.
        ("shard-result", []),
        # Created before the plan: both shard results land, then the
        # report write fails.
        ("report", [0, 1]),
    ],
)
def test_hard_checkpoint_enospc_aborts_then_resumes_clean(
    tmp_path, reference, failing, stored_before_abort
):
    directory = tmp_path / "camp"
    plan = FaultPlan(
        name="disk-full-forever",
        # Let two writes land, then every checkpoint write fails.
        rules=({"site": "checkpoint.write", "kind": "enospc", "after": 2},),
    )
    create_armed = failing == "shard-result"
    campaign = None if create_armed else Campaign.create(directory, SPEC)
    with faults.armed(plan) as state:
        if create_armed:
            campaign = Campaign.create(directory, SPEC)
        with pytest.raises(OSError):
            campaign.run(workers=1)
    # One write failed, through all of its ENOSPC retries.
    assert state.log == [("checkpoint.write", "enospc")] * (ENOSPC_RETRIES + 1)
    assert stored_rows(directory) == stored_before_abort
    assert not campaign.paths.report_path.exists()
    campaign.close()
    # The disk "recovers": a plain resume finishes byte-identical.
    resumed = Campaign.open(directory)
    assert resumed.run(workers=1) == [0, 1][len(stored_before_abort):]
    assert resumed.paths.report_path.read_bytes() == reference


@pytest.mark.parametrize("kind", ["bitflip", "truncate"])
def test_damaged_shard_result_is_recomputed_on_resume(
    tmp_path, reference, kind, capsys
):
    directory = tmp_path / "camp"
    plan = FaultPlan(
        name=f"result-{kind}",
        # Let the spec/manifest land, then damage shard 0's stored result.
        rules=({"site": "checkpoint.write", "kind": kind, "after": 2, "times": 1},),
    )
    with faults.armed(plan) as state:
        campaign = Campaign.create(directory, SPEC)
        assert campaign.run(workers=1) == [0, 1]
    assert state.log, f"plan {plan.name} never fired — the test is vacuous"
    # The run's own final read caught the damage: no report from it.
    assert "discarding the result of shard 0" in capsys.readouterr().err
    assert not campaign.paths.report_path.exists()
    resumed = Campaign.open(directory)
    assert resumed.run(workers=1) == [0]
    assert resumed.paths.report_path.read_bytes() == reference


def test_parallel_campaign_under_cache_corruption(tmp_path, reference):
    plan = FaultPlan(
        name="parallel-bitflip",
        rules=({"site": "cache.write", "kind": "bitflip"},),
    )
    campaign, _ = _run_under(plan, tmp_path / "camp", workers=2)
    assert campaign.paths.report_path.read_bytes() == reference


def test_seeded_plans_fire_identically_across_replays(tmp_path, reference):
    plan = FaultPlan(
        name="replay", seed=99,
        rules=({"site": "cache.*", "kind": "raise", "probability": 0.3},),
    )
    _, first = _run_under(plan, tmp_path / "a")
    _, second = _run_under(plan, tmp_path / "b")
    assert first.log == second.log
    assert first.log, "probability 0.3 over a whole campaign never fired"
