"""``repro doctor``: detection, repair, and the CLI contract."""

import json
import shutil
import time

import pytest

from repro import cli
from repro.campaign import Campaign, CampaignPaths, CampaignSpec, WorkQueue
from repro.core.instances import ALL_NAMED_INSTANCES
from repro.doctor import DoctorError, diagnose
from repro.engine.cache import QUARANTINE_DIR, VerdictCache, verdict_key
from repro.engine.explorer import ExplorationResult

SPEC = CampaignSpec(
    name="doctor", count=4, models=("R1O",), shard_size=2,
    n_nodes=4, queue_bound=2, step_bound=20000,
)


@pytest.fixture(scope="module")
def finished_campaign(tmp_path_factory):
    """One completed tiny campaign, copied per test."""
    directory = tmp_path_factory.mktemp("campaign") / "camp"
    campaign = Campaign.create(directory, SPEC)
    campaign.run(workers=1)
    return directory


@pytest.fixture()
def campaign_dir(finished_campaign, tmp_path):
    target = tmp_path / "camp"
    shutil.copytree(finished_campaign, target)
    return target


def _cache_with_entry(root):
    instance = ALL_NAMED_INSTANCES["disagree"]()
    cache = VerdictCache(root)
    key = verdict_key(
        instance, "R1O", queue_bound=2, max_states=1000,
        reliable_twin_first=False, reduction="ample",
    )
    cache.put(
        key,
        instance,
        ExplorationResult(
            model_name="R1O", instance_name=instance.name, oscillates=False,
            complete=True, states_explored=5, truncated_states=0,
        ),
    )
    return cache


# ----------------------------------------------------------------------
# Detection and refusal.
# ----------------------------------------------------------------------

def test_unrecognized_directory_raises(tmp_path):
    with pytest.raises(DoctorError):
        diagnose(tmp_path)


def test_cli_exit_codes(tmp_path, campaign_dir, capsys):
    assert cli.main(["doctor", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err
    assert cli.main(["doctor", str(campaign_dir)]) == 0
    (campaign_dir / "manifest.json").write_text("junk")
    assert cli.main(["doctor", str(campaign_dir)]) == 1
    capsys.readouterr()
    assert cli.main(["doctor", str(campaign_dir), "--repair", "--json"]) == 0
    parsed = json.loads(capsys.readouterr().out)
    assert parsed["ok"] is True
    assert any(f["repair"] == "rewritten" for f in parsed["findings"])


# ----------------------------------------------------------------------
# Cache roots.
# ----------------------------------------------------------------------

def test_healthy_cache_root(tmp_path):
    root = tmp_path / "cache"
    _cache_with_entry(root)
    report = diagnose(root)
    assert report.kind == "cache"
    assert report.ok() and report.healthy == 1 and report.errors == 0


def test_corrupt_cache_entry_detected_and_quarantined(tmp_path):
    root = tmp_path / "cache"
    _cache_with_entry(root)
    [entry] = list(root.rglob("*/*.json"))
    entry.write_text(entry.read_text()[:-10])

    report = diagnose(root)
    assert not report.ok()
    [finding] = [f for f in report.findings if f.severity == "error"]
    assert finding.category == "cache.entry"
    assert entry.exists()  # diagnose-only never moves anything

    repaired = diagnose(root, repair=True)
    assert repaired.ok()
    assert not entry.exists()
    assert len(list((root / QUARANTINE_DIR).iterdir())) == 1


def test_misplaced_cache_entry_is_a_warning(tmp_path):
    root = tmp_path / "cache"
    _cache_with_entry(root)
    [entry] = list(root.rglob("*/*.json"))
    wrong = root / "verdicts" / ("zz" if entry.parent.name != "zz" else "zy")
    wrong.mkdir(parents=True)
    shutil.move(str(entry), wrong / entry.name)
    report = diagnose(root)
    assert report.ok()  # warnings never fail the check
    assert any(
        f.category == "cache.entry" and "misplaced" in f.detail
        for f in report.findings
    )


def test_orphan_temps_reported_and_removed(tmp_path):
    root = tmp_path / "cache"
    _cache_with_entry(root)
    orphan = root / "verdicts" / ".stale-entry.json-abc.tmp"
    orphan.write_text("partial")
    report = diagnose(root)
    assert any(f.category == "storage.orphan_temp" for f in report.findings)
    assert orphan.exists()
    diagnose(root, repair=True)
    assert not orphan.exists()


# ----------------------------------------------------------------------
# Campaign directories.
# ----------------------------------------------------------------------

def test_healthy_campaign(campaign_dir):
    report = diagnose(campaign_dir)
    assert report.kind == "campaign"
    assert report.ok() and report.errors == 0
    # spec + manifest + 2 shards + report, plus the nested cache entries.
    assert report.healthy >= 5


def test_corrupt_spec_is_unrepairable(campaign_dir):
    (campaign_dir / "spec.json").write_text("{")
    report = diagnose(campaign_dir, repair=True)
    assert not report.ok()
    [finding] = [f for f in report.findings if f.category == "campaign.spec"]
    assert finding.repair is None


def test_manifest_digest_mismatch_is_rewritten(campaign_dir):
    manifest_path = campaign_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["digest"] = "0" * 64
    manifest_path.write_text(json.dumps(manifest))
    report = diagnose(campaign_dir, repair=True)
    assert report.ok()
    assert json.loads(manifest_path.read_text())["digest"] != "0" * 64


def test_bad_shard_checkpoint_quarantined(campaign_dir):
    shard = campaign_dir / "shards" / "shard-0001.json"
    payload = json.loads(shard.read_text())
    payload["records"] = payload["records"][:-1]  # truncated checkpoint
    shard.write_text(json.dumps(payload))
    report = diagnose(campaign_dir)
    assert not report.ok()
    assert any(
        "re-run on resume" in f.detail for f in report.findings
        if f.category == "campaign.shard"
    )
    repaired = diagnose(campaign_dir, repair=True)
    assert repaired.ok()
    assert not shard.exists()
    # The stale report (now missing a shard) is quarantined too.
    assert not (campaign_dir / "report.json").exists()
    assert any(f.category == "campaign.pending" for f in repaired.findings)


def test_tampered_report_is_rewritten_byte_identical(campaign_dir):
    report_path = campaign_dir / "report.json"
    original = report_path.read_bytes()
    tampered = json.loads(original)
    tampered["per_model"]["R1O"]["oscillating"] = 999
    report_path.write_text(json.dumps(tampered))
    assert not diagnose(campaign_dir).ok()
    assert diagnose(campaign_dir, repair=True).ok()
    assert report_path.read_bytes() == original


def test_foreign_file_in_shards_is_a_warning(campaign_dir):
    (campaign_dir / "shards" / "notes.txt").write_text("scratch")
    report = diagnose(campaign_dir)
    assert report.ok()
    assert any(
        f.category == "campaign.shard" and "foreign" in f.detail
        for f in report.findings
    )


def test_out_of_range_shard_is_an_error(campaign_dir):
    source = campaign_dir / "shards" / "shard-0000.json"
    (campaign_dir / "shards" / "shard-0099.json").write_text(source.read_text())
    report = diagnose(campaign_dir)
    assert not report.ok()
    assert any("out of range" in f.detail for f in report.findings)


# ----------------------------------------------------------------------
# The campaign work queue (queue.sqlite).
# ----------------------------------------------------------------------

OTHER_DIGEST = "cd" * 32


def _queue(directory, digest=None, **kwargs):
    return WorkQueue(
        CampaignPaths(directory).queue_db_path,
        digest or Campaign.open(directory).digest,
        **kwargs,
    )


def _corrupt_queue(directory):
    (directory / "queue.sqlite").write_bytes(b"not a database\n" * 64)


def _foreign_queue(directory):
    _queue(directory, OTHER_DIGEST).close()


def _out_of_range_row(directory):
    with _queue(directory) as queue:
        queue.enroll([0, 1, 7], done=[0, 1])


def _expired_lease(directory):
    with _queue(directory, lease_ttl=0.01) as queue:
        queue.enroll([0, 1], done=[1])
        assert queue.claim("ghost").shard == 0
    time.sleep(0.05)


def _done_without_checkpoint(directory):
    with _queue(directory) as queue:
        queue.enroll([0, 1], done=[0, 1])
    (directory / "shards" / "shard-0001.json").unlink()


def _quarantined_shard(directory):
    with _queue(directory, quarantine_after=1) as queue:
        queue.enroll([0, 1], done=[1])
        assert queue.fail(queue.claim("w")) == "quarantined"


QUEUE_CASES = {
    # case: (set-up, severity, detail, repair action)
    "corrupt": (
        _corrupt_queue, "error",
        "corrupt queue database (file is not a database)", "quarantined",
    ),
    "foreign-digest": (
        _foreign_queue, "error",
        f"queue digest {OTHER_DIGEST[:12]!r} does not match campaign digest "
        "{digest!r} — foreign queue",
        "quarantined",
    ),
    "out-of-range-shard": (
        _out_of_range_row, "error",
        "shard id 7 out of range (spec has 2 shards)", "removed",
    ),
    "expired-lease": (
        _expired_lease, "warning",
        "expired lease on shard 0 (worker ghost) — orphaned by a crashed or "
        "partitioned worker",
        "reclaimed",
    ),
    "done-without-checkpoint": (
        _done_without_checkpoint, "error",
        "shard 1 marked done in the queue but has no valid checkpoint — it "
        "would never re-run",
        "reset",
    ),
    "quarantined": (
        _quarantined_shard, "info",
        "shard(s) [0] quarantined as poison (reset with "
        "repro.campaign.queue reset to retry them)",
        None,
    ),
}


@pytest.mark.parametrize("case", sorted(QUEUE_CASES))
def test_queue_findings_and_repairs(campaign_dir, case):
    setup, severity, detail, action = QUEUE_CASES[case]
    setup(campaign_dir)
    detail = detail.format(digest=Campaign.open(campaign_dir).digest[:12])
    db = campaign_dir / "queue.sqlite"
    before = db.read_bytes()

    def queue_findings(report):
        return [
            (f.severity, f.path, f.detail, f.repair)
            for f in report.findings
            if f.category == "campaign.queue"
        ]

    # Diagnosing alone reports, repairs nothing, and never writes the queue.
    assert queue_findings(diagnose(campaign_dir)) == [
        (severity, "queue.sqlite", detail, None)
    ]
    assert db.read_bytes() == before

    repaired = diagnose(campaign_dir, repair=True)
    assert queue_findings(repaired) == [
        (severity, "queue.sqlite", detail, action)
    ]
    if action == "quarantined":
        assert not db.exists()
        assert (campaign_dir / QUARANTINE_DIR / "queue.sqlite").read_bytes() == before
    # A repaired queue diagnoses clean (quarantined poison stays info).
    remaining = [(severity, "queue.sqlite", detail, None)] if severity == "info" else []
    assert queue_findings(diagnose(campaign_dir)) == remaining
