"""Multi-worker joins converge on the single-host report, byte for byte.

The determinism chain under test: records are pure functions of
``(spec, shard)``, checkpoints are write-once, and the report
aggregates in manifest order — so any interleaving of joiners (path or
HTTP transport, duplicated work included) must reproduce the
single-host ``report.json`` exactly.
"""

import json
import threading

import pytest

from repro.campaign import api
from repro.campaign.worker import CoordinatorClient
from repro.campaign.spec import CampaignSpec

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


@pytest.mark.parametrize("transport", ["path", "url"])
def test_leftover_lease_files_are_ignored(tmp_path, reference_report, transport):
    """A campaign directory with a leftover ``queue/`` resumes on
    ``queue.sqlite``, enrolled from the checkpoints alone."""
    directory = tmp_path / "campaign"
    handle = api.create(CampaignSpec(**SPEC), directory)
    leftover = _leftover_lease_files(directory, handle.digest)
    if transport == "path":
        summaries = _join_all(str(directory), 1)
    else:
        with api.serve(directory, port=0) as coordinator:
            summaries = _join_all(coordinator.url, 1)
            assert coordinator.wait_complete(timeout=10)
    assert (directory / "report.json").read_bytes() == reference_report
    assert summaries[0]["shards"] == list(range(CampaignSpec(**SPEC).n_shards))
    assert (directory / "queue.sqlite").is_file()
    assert sorted(p.name for p in (directory / "queue").iterdir()) == leftover


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
