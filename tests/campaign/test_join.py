"""Multi-worker joins converge on the single-host report, byte for byte.

The determinism chain under test: records are pure functions of
``(spec, shard)``, stored results are write-once, and the report
aggregates in manifest order — so any interleaving of joiners
(directory or HTTP transport, duplicated work included) must reproduce
the single-host ``report.json`` exactly.

The ``transport`` scenarios at the end are the shard broker's
conformance suite: each runs through a directory join and through a
coordinator, which must apply the same lease-and-finish rules.
"""

import json
import threading
import time
from collections import Counter

import pytest

import repro.campaign.worker as worker_module
from repro.campaign import api
from repro.campaign.broker import ShardBroker
from repro.campaign.queue import WorkQueue
from repro.campaign.runner import Campaign, compute_shard_records
from repro.campaign.worker import CoordinatorClient
from repro.campaign.spec import CampaignSpec

from .rows import edit_result

SPEC = dict(
    name="join-test",
    count=6,
    models=("R1O", "RMS"),
    mode="explore",
    shard_size=2,
    n_nodes=4,
    queue_bound=2,
    step_bound=20_000,
    cache=False,
)


@pytest.fixture(scope="module")
def reference_report(tmp_path_factory):
    directory = tmp_path_factory.mktemp("reference") / "campaign"
    handle = api.create(CampaignSpec(**SPEC), directory)
    handle.run(workers=1)
    return (directory / "report.json").read_bytes()


def _join_all(target, n_workers, **kwargs):
    summaries = []
    lock = threading.Lock()

    def work():
        summary = api.join(target, workers=1, **kwargs)
        with lock:
            summaries.append(summary)

    threads = [threading.Thread(target=work) for _ in range(n_workers)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return summaries


def test_two_path_joiners_match_single_host(tmp_path, reference_report):
    directory = tmp_path / "campaign"
    api.create(CampaignSpec(**SPEC), directory)
    summaries = _join_all(str(directory), 2, lease_ttl=10.0)
    assert (directory / "report.json").read_bytes() == reference_report
    ran = sorted(shard for s in summaries for shard in s["shards"])
    assert ran == list(range(CampaignSpec(**SPEC).n_shards))
    assert all(s["complete"] for s in summaries)


def test_two_url_joiners_match_single_host(tmp_path, reference_report):
    directory = tmp_path / "campaign"
    api.create(CampaignSpec(**SPEC), directory)
    coordinator = api.serve(directory, port=0, lease_ttl=10.0)
    with coordinator:
        summaries = _join_all(
            coordinator.url, 2, cache_dir=str(tmp_path / "worker-cache")
        )
        assert coordinator.wait_complete(timeout=10)
        snap = coordinator.queue.snapshot()
    assert (directory / "report.json").read_bytes() == reference_report
    assert snap["done"] == CampaignSpec(**SPEC).n_shards
    assert all(s["complete"] for s in summaries)


def test_join_then_join_again_is_idempotent(tmp_path, reference_report):
    directory = tmp_path / "campaign"
    api.create(CampaignSpec(**SPEC), directory)
    api.join(str(directory), workers=1)
    again = api.join(str(directory), workers=1)
    assert again["shards"] == [] and again["complete"]
    assert (directory / "report.json").read_bytes() == reference_report


def test_finishing_reads_each_result_once(tmp_path, monkeypatch):
    """Finishing parses the stored results only once no shard is open
    or leased: each of 16 shards is read once, for the report.  Reading
    every result after each completion would read each one up to 16
    times."""
    directory = tmp_path / "campaign"
    spec = CampaignSpec(**{**SPEC, "count": 16, "shard_size": 1})
    api.create(spec, directory)
    reads = Counter()
    read_result = Campaign._read_result

    def counting(campaign, shard, text):
        reads[shard] += 1
        return read_result(campaign, shard, text)

    monkeypatch.setattr(Campaign, "_read_result", counting)
    summary = api.join(str(directory), workers=1)
    assert summary["complete"] and len(summary["shards"]) == 16
    assert reads == Counter(range(16)), reads


def test_result_damaged_after_it_was_stored_is_recomputed(tmp_path):
    """A done row whose result turns unusable before the report is
    written is reset when finishing reads it: the broker does not
    finish on it, and the shard is claimed and computed again."""
    spec = CampaignSpec(**SPEC)
    campaign = api.create(spec, tmp_path / "campaign").raw
    campaign.run_shard(0, workers=1)
    broker = ShardBroker(campaign)
    try:
        edit_result(campaign.paths.directory, 0, shard=1)
        ran = []
        while (lease := broker.claim("w")) is not None:
            ran.append(lease.shard)
            records = compute_shard_records(spec, lease.shard, workers=1)
            broker.complete_shard(lease, records)
        assert ran == [1, 2, 0]
        assert broker.complete
        assert campaign.paths.report_path.exists()
    finally:
        broker.close()


def test_max_shards_leaves_early(tmp_path):
    directory = tmp_path / "campaign"
    api.create(CampaignSpec(**SPEC), directory)
    summary = api.join(str(directory), workers=1, max_shards=1)
    assert len(summary["shards"]) == 1
    assert not (directory / "report.json").is_file()


def test_url_status_and_handle_surface(tmp_path):
    directory = tmp_path / "campaign"
    handle = api.create(CampaignSpec(**SPEC), directory)
    assert handle.digest == api.attach(directory).digest
    assert "join-test" in repr(handle)
    coordinator = api.serve(directory, port=0)
    with coordinator:
        status = api.status(coordinator.url)
        assert status["v"] == 2
        assert status["campaign"]["shards_total"] == CampaignSpec(**SPEC).n_shards
        assert status["queue"]["open"] == CampaignSpec(**SPEC).n_shards
    assert api.status(str(directory))["shards_pending"] > 0


def test_workers_resolved_once_per_join(tmp_path, monkeypatch):
    """$REPRO_WORKERS is read once at join time, not once per shard."""
    import repro.config as config_module

    calls = []
    real = config_module.RunConfig.resolved_workers

    def counting(self):
        calls.append(self.workers)
        return real(self)

    monkeypatch.setattr(config_module.RunConfig, "resolved_workers", counting)
    monkeypatch.setenv("REPRO_WORKERS", "1")
    directory = tmp_path / "campaign"
    api.create(CampaignSpec(**SPEC), directory)
    api.join(str(directory))
    assert len(calls) == 1


def test_campaign_run_resolves_workers_once(tmp_path, monkeypatch):
    import repro.config as config_module

    calls = []
    real = config_module.RunConfig.resolved_workers

    def counting(self):
        calls.append(self.workers)
        return real(self)

    monkeypatch.setattr(config_module.RunConfig, "resolved_workers", counting)
    monkeypatch.setenv("REPRO_WORKERS", "1")
    directory = tmp_path / "campaign"
    api.create(CampaignSpec(**SPEC), directory).run()
    assert len(calls) == 1


def _leftover_lease_files(directory, digest):
    """A ``queue/`` directory as the retired lease-file backend left it:
    shard 0 marked done (its checkpoint was never written) and shard 1
    held by a lease nobody will renew."""
    queue_dir = directory / "queue"
    queue_dir.mkdir()
    (queue_dir / "digest.json").write_text(json.dumps({"digest": digest}))
    (queue_dir / "shards.json").write_text(json.dumps([0, 1, 2]))
    (queue_dir / "done-0000.marker").write_text("")
    (queue_dir / "lease-0001.json").write_text(json.dumps(
        {"worker": "gone", "token": "00" * 8, "expires": 4102444800.0}
    ))
    return sorted(path.name for path in queue_dir.iterdir())


@pytest.fixture(params=["dir", "url"])
def transport(request):
    """How a scenario works its campaign: a directory join, or a join
    of a coordinator serving the directory."""
    return request.param


def join_via(transport, directory, *, quarantine_after=None, timeout=60.0):
    """One ``workers=1`` join of ``directory`` through ``transport``;
    its summary.  The join runs on a daemon thread, so a join that
    never finishes fails the test after ``timeout`` instead of hanging
    the suite.  A URL join also waits for the coordinator to finish;
    ``quarantine_after`` goes to whichever side brokers the shards."""
    outcome = {}

    def work():
        try:
            if transport == "dir":
                outcome["summary"] = api.join(
                    str(directory), workers=1, quarantine_after=quarantine_after
                )
                return
            serve_kwargs = {}
            if quarantine_after is not None:
                serve_kwargs["quarantine_after"] = quarantine_after
            with api.serve(directory, port=0, **serve_kwargs) as coordinator:
                outcome["summary"] = api.join(coordinator.url, workers=1)
                assert coordinator.wait_complete(timeout=10)
        except BaseException as error:  # re-raised on the test's thread
            outcome["error"] = error

    thread = threading.Thread(target=work, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"{transport} join still running after {timeout}s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["summary"]


def test_leftover_lease_files_are_ignored(tmp_path, reference_report, transport):
    """A campaign directory with a leftover ``queue/`` resumes on
    ``queue.sqlite`` alone."""
    directory = tmp_path / "campaign"
    handle = api.create(CampaignSpec(**SPEC), directory)
    leftover = _leftover_lease_files(directory, handle.digest)
    summary = join_via(transport, directory)
    assert (directory / "report.json").read_bytes() == reference_report
    assert summary["shards"] == list(range(CampaignSpec(**SPEC).n_shards))
    assert (directory / "queue.sqlite").is_file()
    assert sorted(p.name for p in (directory / "queue").iterdir()) == leftover


def test_done_row_with_unusable_result_is_recomputed(
    tmp_path, reference_report, transport
):
    """A ``done`` row whose result is unusable re-opens when a broker
    opens and reads it, so the join recomputes the shard instead of
    polling forever for it."""
    directory = tmp_path / "campaign"
    paths = api.create(CampaignSpec(**SPEC), directory).raw.paths
    api.join(str(directory), workers=1)
    edit_result(directory, 1, records=[])
    paths.report_path.unlink()
    summary = join_via(transport, directory)
    assert summary["shards"] == [1]
    assert summary["complete"] is True
    assert paths.report_path.read_bytes() == reference_report


def test_last_row_done_without_report_writes_report(
    tmp_path, reference_report, transport
):
    """A crash between the last shard's row and the report leaves every
    row done: the join has nothing to compute but must still write the
    report before it calls the campaign complete."""
    spec = CampaignSpec(**SPEC)
    directory = tmp_path / "campaign"
    handle = api.create(spec, directory)
    handle.run(workers=1)
    handle.raw.paths.report_path.unlink()
    summary = join_via(transport, directory)
    assert summary["shards"] == []
    assert summary["complete"] is True
    assert handle.raw.paths.report_path.read_bytes() == reference_report


def _poison_shard(monkeypatch, poison):
    def compute(spec, shard, **kwargs):
        if shard == poison:
            raise RuntimeError("planted poison")
        return compute_shard_records(spec, shard, **kwargs)

    monkeypatch.setattr(worker_module, "compute_shard_records", compute)


def test_recomputed_quarantined_shard_replaces_partial_report(
    tmp_path, monkeypatch, reference_report, transport
):
    """Once a quarantined shard is reset and recomputed, the partial
    report on disk gives way to the full one."""
    directory = tmp_path / "campaign"
    handle = api.create(CampaignSpec(**SPEC), directory)
    _poison_shard(monkeypatch, 1)
    api.join(str(directory), workers=1, quarantine_after=1)
    report_path = handle.raw.paths.report_path
    assert json.loads(report_path.read_text())["partial"] is True
    monkeypatch.undo()
    with WorkQueue(handle.raw.paths.queue_db_path, handle.digest) as queue:
        assert queue.reset([1]) == [1]
    summary = join_via(transport, directory)
    assert summary["shards"] == [1]
    assert summary["complete"] is True
    assert report_path.read_bytes() == reference_report


def test_stale_report_does_not_complete_a_held_shard(
    tmp_path, reference_report, transport
):
    """Worker A holds the last shard and a stale ``report.json`` is on
    disk: worker B finds nothing to claim, but the campaign is not
    complete until A's shard lands."""
    spec = CampaignSpec(**SPEC)
    last = spec.n_shards - 1
    directory = tmp_path / "campaign"
    handle = api.create(spec, directory)
    handle.run(workers=1, max_shards=last)
    report_path = handle.raw.paths.report_path
    report_path.write_bytes(reference_report)
    with WorkQueue(
        handle.raw.paths.queue_db_path, handle.digest, lease_ttl=60.0
    ) as holder:
        lease = holder.claim("A")
        assert lease.shard == last
        if transport == "url":
            with api.serve(directory, port=0) as coordinator:
                answer = coordinator.handle_claim({"v": 2, "worker": "B"})
                assert answer == {"shard": None, "complete": False}
                assert not coordinator.complete
                coordinator.handle_complete({
                    "shard": last,
                    "token": lease.token,
                    "worker": "A",
                    "records": compute_shard_records(spec, last, workers=1),
                })
                assert coordinator.complete
        else:
            outcome = {}
            worker_b = threading.Thread(
                target=lambda: outcome.update(
                    api.join(str(directory), workers=1, poll_s=0.02)
                ),
                daemon=True,
            )
            worker_b.start()
            time.sleep(0.5)
            assert worker_b.is_alive() and not outcome
            holder.release(lease)
            worker_b.join(timeout=60)
            assert outcome["shards"] == [last]
            assert outcome["complete"] is True
    assert report_path.read_bytes() == reference_report


def test_open_on_finished_rows_writes_report_first(
    tmp_path, reference_report, transport
):
    """A campaign with every result stored but no report is complete
    only once opening its broker has written the report."""
    directory = tmp_path / "campaign"
    handle = api.create(CampaignSpec(**SPEC), directory)
    handle.run(workers=1)
    report_path = handle.raw.paths.report_path
    report_path.unlink()
    if transport == "url":
        with api.serve(directory, port=0) as coordinator:
            assert coordinator.complete
            assert report_path.read_bytes() == reference_report
    else:
        summary = api.join(str(directory), workers=1, max_shards=0)
        assert summary["complete"] is True
        assert report_path.read_bytes() == reference_report


def test_serving_a_used_handle_applies_its_lease_settings(tmp_path):
    """A handle whose campaign already opened its queue (a run) serves
    with the coordinator's lease settings, not the run's defaults."""
    handle = api.create(CampaignSpec(**SPEC), tmp_path / "campaign")
    handle.run(workers=1, max_shards=1)
    with handle.serve(port=0, lease_ttl=12.5, quarantine_after=1) as coordinator:
        assert coordinator.describe()["lease_ttl"] == 12.5
        assert coordinator.queue is handle.raw.queue()
        assert coordinator.queue.quarantine_after == 1
        assert handle.status()["shards_completed"] == 1


def test_coordinator_bootstrap_names_no_backend(tmp_path):
    """``GET /v2/campaign`` and the queue snapshot describe the one
    queue there is, with no backend field."""
    directory = tmp_path / "campaign"
    handle = api.create(CampaignSpec(**SPEC), directory)
    with api.serve(directory, port=0, lease_ttl=12.5) as coordinator:
        with CoordinatorClient(coordinator.url) as client:
            info = client.describe()
        snapshot = coordinator.queue.snapshot()
    assert info["digest"] == handle.digest
    assert (info["lease_ttl"], info["quarantine_after"]) == (12.5, 3)
    assert sorted(info) == [
        "complete", "digest", "lease_ttl", "quarantine_after", "spec",
        "trace", "v",
    ]
    assert sorted(snapshot) == [
        "done", "leased", "leases", "open", "quarantined",
        "quarantined_shards",
    ]
