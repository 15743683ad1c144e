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
