"""Poison-shard quarantine end to end: a shard whose compute always
fails must not livelock the campaign — after enough distinct workers
strike out it is quarantined and the campaign completes with an
explicitly partial report."""

import json
import threading

import pytest

from repro.campaign import api
from repro.campaign.report import render_report
from repro.campaign.runner import compute_shard_records
from repro.campaign.spec import CampaignSpec
from repro.obs import install
from repro.obs.telemetry import Telemetry

from .rows import flip_states_explored
from .test_join import join_via

SPEC = dict(
    name="poison-test",
    count=6,
    models=("R1O", "RMS"),
    mode="explore",
    shard_size=2,
    n_nodes=4,
    queue_bound=2,
    step_bound=20_000,
    cache=False,
)

POISON_SHARD = 1


def _poisoned(monkeypatch):
    """Patch the worker's compute so POISON_SHARD always raises."""

    def compute(spec, shard, **kwargs):
        if shard == POISON_SHARD:
            raise RuntimeError("planted poison")
        return compute_shard_records(spec, shard, **kwargs)

    import repro.campaign.worker as worker_module

    monkeypatch.setattr(worker_module, "compute_shard_records", compute)


def _assert_partial(directory, spec):
    report = json.loads((directory / "report.json").read_text())
    assert report["partial"] is True
    assert report["quarantined_shards"] == [POISON_SHARD]
    # The facade serves the written partial report instead of refusing
    # on the pending-but-quarantined shard.
    assert api.report(str(directory)) == report
    models = len(spec.model_names())
    poisoned_tasks = len(spec.shard_seeds(POISON_SHARD)) * models
    assert report["tasks"] == spec.count * models - poisoned_tasks
    rendered = render_report(report)
    assert "PARTIAL REPORT" in rendered
    assert str(POISON_SHARD) in rendered


def test_single_joiner_quarantines_poison_shard(tmp_path, monkeypatch, capsys):
    """One worker alone: the total-failure cap quarantines the shard
    (quarantine_after=1 makes the first strike decisive)."""
    _poisoned(monkeypatch)
    directory = tmp_path / "campaign"
    api.create(CampaignSpec(**SPEC), directory)
    summary = api.join(
        str(directory),
        workers=1,
        lease_ttl=10.0,
        quarantine_after=1,
    )
    assert summary["complete"] is True
    assert summary["failed_shards"] == 1
    assert POISON_SHARD not in summary["shards"]
    _assert_partial(directory, CampaignSpec(**SPEC))
    assert "poison" in capsys.readouterr().err


def test_two_joiners_quarantine_after_distinct_failures(
    tmp_path, monkeypatch
):
    """Two workers: the shard is quarantined once two *distinct*
    workers have failed it, and whichever resolves the last shard
    writes the partial report — no livelock, no hang."""
    _poisoned(monkeypatch)
    directory = tmp_path / "campaign"
    api.create(CampaignSpec(**SPEC), directory)
    summaries = []
    lock = threading.Lock()

    def work(name):
        summary = api.join(
            str(directory),
            workers=1,
            lease_ttl=10.0,
            quarantine_after=2,
            worker_id=name,
        )
        with lock:
            summaries.append(summary)

    threads = [
        threading.Thread(target=work, args=(f"w{i}",)) for i in range(2)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert len(summaries) == 2
    assert all(s["complete"] for s in summaries)
    assert sum(s["failed_shards"] for s in summaries) >= 2
    ran = sorted(shard for s in summaries for shard in s["shards"])
    spec = CampaignSpec(**SPEC)
    assert ran == [s for s in range(spec.n_shards) if s != POISON_SHARD]
    _assert_partial(directory, spec)


def test_coordinator_quarantines_over_http(tmp_path, monkeypatch):
    """URL transport: the worker reports the failure via
    /v2/campaign/fail and the coordinator quarantines, finishes, and
    writes the partial report."""
    _poisoned(monkeypatch)
    directory = tmp_path / "campaign"
    api.create(CampaignSpec(**SPEC), directory)
    coordinator = api.serve(
        directory, port=0, lease_ttl=10.0, quarantine_after=1
    )
    with coordinator:
        summary = api.join(
            coordinator.url,
            workers=1,
            cache_dir=str(tmp_path / "worker-cache"),
        )
        assert coordinator.wait_complete(timeout=30)
        snap = coordinator.queue.snapshot()
    assert summary["failed_shards"] == 1
    assert snap["quarantined"] == 1
    _assert_partial(directory, CampaignSpec(**SPEC))


def _poison_run_telemetry(tmp_path, monkeypatch, transport):
    """The ``campaign.*`` counter names and ``campaign.shard.fail``
    events of one poison-shard campaign (``quarantine_after=1``) run
    through ``transport``.  Before the run, shard 0's row is done but its
    stored result is corrupt, so the broker also discards it."""
    directory = tmp_path / transport / "campaign"
    api.create(CampaignSpec(**SPEC), directory)
    api.join(str(directory), workers=1, max_shards=1)
    flip_states_explored(directory, 0)
    _poisoned(monkeypatch)
    path = tmp_path / transport / "telemetry.jsonl"
    telemetry = Telemetry(path)
    previous = install(telemetry)
    try:
        join_via(transport, directory, quarantine_after=1)
    finally:
        install(previous)
        telemetry.close()
    _assert_partial(directory, CampaignSpec(**SPEC))
    counters = {name for name in telemetry.counters if name.startswith("campaign.")}
    records = [json.loads(line) for line in path.read_text().splitlines()]
    fails = [
        (record["shard"], record["outcome"])
        for record in records
        if record["type"] == "campaign.shard.fail"
    ]
    return counters, fails


def test_directory_and_url_joins_emit_the_same_campaign_telemetry(
    tmp_path, monkeypatch
):
    """One broker, one telemetry: the directory join and the URL join
    count the same ``campaign.*`` names and emit the same failure
    event for the same poison-shard campaign."""
    by_dir = _poison_run_telemetry(tmp_path, monkeypatch, "dir")
    by_url = _poison_run_telemetry(tmp_path, monkeypatch, "url")
    assert by_dir == by_url
    counters, fails = by_dir
    assert {
        "campaign.checkpoint_discarded",
        "campaign.queue.reset",
        "campaign.report.partial",
        "campaign.shard.quarantined",
    } <= counters
    assert fails == [(POISON_SHARD, "quarantined")]
