"""``repro doctor``: detection, repair, and the CLI contract."""

import json
import shutil
import time
from pathlib import Path

import pytest

from repro import cli
from repro.campaign import Campaign, CampaignPaths, CampaignSpec, WorkQueue
from repro.core.instances import ALL_NAMED_INSTANCES
from repro.doctor import DoctorError, diagnose
from repro.engine.cache import VerdictCache, verdict_key
from repro.engine.explorer import ExplorationResult
from repro.fsutil import QUARANTINE_DIR

from ..campaign.rows import (
    edit_result,
    flip_states_explored,
    store_result,
    stored_result,
)
from ..engine.verdict_rows import damage, edit_payload, only_key, rows, store_path

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
    campaign.close()
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


def test_corrupt_cache_row_detected_and_removed(tmp_path):
    root = tmp_path / "cache"
    _cache_with_entry(root)
    key = only_key(root)
    damage(root, key, lambda raw: raw[:-10])

    report = diagnose(root)
    assert not report.ok()
    [finding] = [f for f in report.findings if f.severity == "error"]
    assert finding.category == "cache.entry"
    assert finding.detail.startswith(f"entry {key}: corrupt entry")
    assert key in rows(root)  # diagnose-only never changes anything

    repaired = diagnose(root, repair=True)
    assert repaired.ok()
    assert [f.repair for f in repaired.findings] == ["removed"]
    assert rows(root) == {}
    assert not (root / QUARANTINE_DIR).exists()


def test_unreadable_store_is_set_aside(tmp_path):
    root = tmp_path / "cache"
    root.mkdir()
    store_path(root).write_bytes(b"not a database\n" * 64)
    [finding] = diagnose(root).findings
    assert (finding.severity, finding.category) == ("error", "cache.store")
    repaired = diagnose(root, repair=True)
    assert repaired.ok() and repaired.findings[0].repair == "quarantined"
    assert (root / QUARANTINE_DIR / "verdicts.sqlite").is_file()


def test_orphan_temps_reported_and_removed(campaign_dir):
    orphan = campaign_dir / ".report.json-abc.tmp"
    orphan.write_text("partial")
    report = diagnose(campaign_dir)
    assert any(f.category == "storage.orphan_temp" for f in report.findings)
    assert orphan.exists()
    diagnose(campaign_dir, repair=True)
    assert not orphan.exists()


# ----------------------------------------------------------------------
# Campaign directories.
# ----------------------------------------------------------------------

def test_healthy_campaign(campaign_dir):
    report = diagnose(campaign_dir)
    assert report.kind == "campaign"
    assert report.ok() and report.errors == 0
    # spec + manifest + 2 shard rows + queue + report, plus the nested
    # cache entries.
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


def test_non_string_manifest_digest_is_rewritten(campaign_dir):
    manifest_path = campaign_dir / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["digest"] = 5
    manifest_path.write_text(json.dumps(manifest))
    [finding] = diagnose(campaign_dir).findings
    assert finding.detail.startswith("digest '5' does not match spec digest")
    assert diagnose(campaign_dir, repair=True).ok()
    assert json.loads(manifest_path.read_text())["digest"] != 5


def test_bad_shard_result_row_is_reset(campaign_dir):
    records = json.loads(stored_result(campaign_dir, 1))["records"]
    edit_result(campaign_dir, 1, records=records[:-1])  # truncated result
    report = diagnose(campaign_dir)
    assert not report.ok()
    assert any(
        f.detail.startswith("shard 1 has an unusable result: expected 2 records")
        and "re-run on resume" in f.detail
        for f in report.findings if f.category == "campaign.queue"
    )
    repaired = diagnose(campaign_dir, repair=True)
    assert repaired.ok()
    assert stored_result(campaign_dir, 1) is None
    # The stale report (now missing a shard) is quarantined too.
    assert not (campaign_dir / "report.json").exists()
    assert any(f.category == "campaign.pending" for f in repaired.findings)


def test_flipped_record_resets_the_row_and_spares_the_report(campaign_dir):
    """A record edited behind the campaign's back — valid JSON, wrong
    ``states_explored`` — fails its checksum: the doctor blames the
    row, not the correct report, and never rewrites the report from the
    corrupt records."""
    report_path = campaign_dir / "report.json"
    reference = report_path.read_bytes()
    flip_states_explored(campaign_dir, 1)
    findings = diagnose(campaign_dir).findings
    assert [
        (f.severity, f.detail) for f in findings if f.category == "campaign.queue"
    ] == [(
        "error",
        "shard 1 has an unusable result: checksum mismatch (bit rot or torn "
        "write) — the shard will re-run on resume",
    )]
    repaired = diagnose(campaign_dir, repair=True)
    assert stored_result(campaign_dir, 1) is None
    assert [f.repair for f in repaired.findings if f.repair] == [
        "reset", "quarantined",
    ]
    assert (campaign_dir / QUARANTINE_DIR / "report.json").read_bytes() == reference
    Campaign.open(campaign_dir).run(workers=1)
    assert report_path.read_bytes() == reference


def test_tampered_report_is_rewritten_byte_identical(campaign_dir):
    report_path = campaign_dir / "report.json"
    original = report_path.read_bytes()
    tampered = json.loads(original)
    tampered["per_model"]["R1O"]["oscillating"] = 999
    report_path.write_text(json.dumps(tampered))
    assert not diagnose(campaign_dir).ok()
    assert diagnose(campaign_dir, repair=True).ok()
    assert report_path.read_bytes() == original


def _out_of_range_result(directory):
    with _queue(directory) as queue:
        queue.enroll([99])
        queue.store(99, stored_result(directory, 0))


def test_out_of_range_shard_is_an_error(campaign_dir):
    _out_of_range_result(campaign_dir)
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


def _reset_rows(directory, *shards):
    with _queue(directory) as queue:
        assert queue.reset(shards) == list(shards)


def _corrupt_queue(directory):
    (directory / "queue.sqlite").write_bytes(b"not a database\n" * 64)


def _foreign_queue(directory):
    (directory / "queue.sqlite").unlink()
    _queue(directory, OTHER_DIGEST).close()


def _out_of_range_row(directory):
    with _queue(directory) as queue:
        queue.enroll([7])


def _expired_lease(directory):
    _reset_rows(directory, 0)
    with _queue(directory, lease_ttl=0.01) as queue:
        assert queue.claim("ghost").shard == 0
    time.sleep(0.05)


def _quarantined_shard(directory):
    _reset_rows(directory, 0)
    with _queue(directory, quarantine_after=1) as queue:
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
    "unusable-result": (
        lambda directory: flip_states_explored(directory, 1), "error",
        "shard 1 has an unusable result: checksum mismatch (bit rot or torn "
        "write) — the shard will re-run on resume",
        "reset",
    ),
    "quarantined": (
        _quarantined_shard, "info",
        "shard(s) [0] quarantined as poison (reset with "
        "repro.campaign.WorkQueue(path, digest).reset([0]) to retry them)",
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


# ----------------------------------------------------------------------
# Shard ids past four digits.
# ----------------------------------------------------------------------

def test_five_digit_shard_results_are_healthy(tmp_path):
    """Shard 10000's row holds its result like any other: the doctor
    reads it as healthy, not sets it aside."""
    spec = CampaignSpec(
        name="wide", count=10001, models=("R1O",), shard_size=1,
        n_nodes=4, queue_bound=2, step_bound=20000, cache=False,
    )
    campaign = Campaign.create(tmp_path / "camp", spec)
    for shard in (9999, 10000):
        campaign.run_shard(shard, workers=1)
    campaign.close()
    assert stored_result(tmp_path / "camp", 10000) is not None

    report = diagnose(tmp_path / "camp")
    assert report.ok() and report.warnings == 0
    assert [f for f in report.findings if f.category == "campaign.queue"] == []
    # spec + manifest + both results + the queue.
    assert report.healthy == 5

    diagnose(tmp_path / "camp", repair=True)
    assert Campaign.open(tmp_path / "camp").completed_shards() == [9999, 10000]
    assert not (tmp_path / "camp" / QUARANTINE_DIR).exists()


# ----------------------------------------------------------------------
# The doctor and the read paths agree.
# ----------------------------------------------------------------------

def _rewrite_json(path, **changes):
    payload = json.loads(path.read_text())
    payload.update(changes)
    path.write_text(json.dumps(payload))


CACHE_DAMAGE = {
    # case: (damage to the row's payload, doctor severity, what a read does)
    "healthy": (lambda root, key: None, None, "served"),
    "torn-json": (
        lambda root, key: damage(root, key, lambda raw: raw[:-10]),
        "error", "removed",
    ),
    "non-object": (
        lambda root, key: damage(root, key, lambda raw: b"[1, 2]"),
        "error", "removed",
    ),
    "invalid-utf8": (
        lambda root, key: damage(root, key, lambda raw: b"\xff" + raw[1:]),
        "error", "removed",
    ),
    "stale-version": (
        lambda root, key: edit_payload(root, key, cache_version=1),
        "warning", "removed",
    ),
    "flipped-checksum": (
        lambda root, key: edit_payload(root, key, checksum="0" * 64),
        "error", "removed",
    ),
}


@pytest.mark.parametrize("case", sorted(CACHE_DAMAGE))
def test_cache_doctor_agrees_with_reads(tmp_path, case):
    damage_row, severity, on_read = CACHE_DAMAGE[case]
    root = tmp_path / "cache"
    _cache_with_entry(root)
    key = only_key(root)
    damage_row(root, key)

    report = diagnose(root)
    found = [f.severity for f in report.findings if f.category == "cache.entry"]
    assert found == ([] if severity is None else [severity])
    assert report.healthy == (1 if severity is None else 0)

    store = VerdictCache(root, memo_entries=0)
    payload, tier = store.get_payload(key)
    assert (payload is not None) == (on_read == "served")
    assert tier == ("disk" if on_read == "served" else "miss")
    assert store.quarantined == (1 if on_read == "removed" else 0)
    assert (key in rows(root)) == (on_read == "served")


CHECKPOINT_DAMAGE = {
    # case: damage applied to the rows of a finished two-shard campaign
    "healthy": lambda d: None,
    "torn-json": lambda d: store_result(d, 0, stored_result(d, 0)[:-10]),
    "non-object": lambda d: store_result(d, 1, "[]"),
    "foreign-digest": lambda d: edit_result(d, 0, digest=OTHER_DIGEST),
    "wrong-shard": lambda d: store_result(d, 1, stored_result(d, 0)),
    "short": lambda d: edit_result(
        d, 1, records=json.loads(stored_result(d, 1))["records"][:-1]
    ),
    "flipped-record": lambda d: flip_states_explored(d, 1),
    "missing": lambda d: _reset_rows(d, 0),
}


@pytest.mark.parametrize("case", sorted(CHECKPOINT_DAMAGE))
def test_campaign_doctor_agrees_with_pending_shards(campaign_dir, tmp_path, case):
    CHECKPOINT_DAMAGE[case](campaign_dir)
    stored = {s for s in range(SPEC.n_shards) if stored_result(campaign_dir, s)}
    # What the runner would re-run, read from a copy: reading resets
    # unusable rows, and the doctor must see them first.
    shutil.copytree(campaign_dir, tmp_path / "runner")
    pending = Campaign.open(tmp_path / "runner").pending_shards()
    report = diagnose(campaign_dir)
    flagged = {
        int(f.detail.split()[1]) for f in report.findings
        if f.category == "campaign.queue" and f.severity == "error"
    }
    # Every result the runner would re-run is one the doctor flags (or
    # one that is simply absent), and nothing else.
    assert flagged == {s for s in pending if s in stored}
    pending_info = [f for f in report.findings if f.category == "campaign.pending"]
    if pending:
        [info] = pending_info
        assert info.detail.startswith(f"{len(pending)} of {SPEC.n_shards} shard(s)")
    else:
        assert pending_info == []
    diagnose(campaign_dir, repair=True)
    assert Campaign.open(campaign_dir).pending_shards() == pending


# ----------------------------------------------------------------------
# Golden output: the rendered report and its JSON, pinned byte for byte.
# ----------------------------------------------------------------------

#: Three passes (diagnose, repair, diagnose again) per corpus, recorded
#: from the doctor before its checks moved into the stores.  The report
#: text and JSON are a user-facing contract: regenerate this file only
#: for a deliberate change of that output.
GOLDEN = Path(__file__).with_name("doctor_golden.json")


def _cache_corpus(damage_row):
    def build(tmp_path, finished):
        root = tmp_path / "cache"
        _cache_with_entry(root)
        damage_row(root, only_key(root))
        return root

    return build


def _campaign_corpus(damage):
    def build(tmp_path, finished):
        target = tmp_path / "camp"
        shutil.copytree(finished, target)
        damage(target)
        return target

    return build


def _empty_cache_root(tmp_path, finished):
    root = tmp_path / ".repro-cache"
    root.mkdir()
    return root


def _partial_report(directory, missing=(1,)):
    _reset_rows(directory, 1)
    campaign = Campaign.open(directory)
    campaign.write_report(quarantined=[1])
    campaign.close()
    _reset_rows(directory, *(shard for shard in missing if shard != 1))


def _retarget_manifest(directory):
    path = directory / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["shards"][0]["tasks"] = 99
    path.write_text(json.dumps(manifest))


def _corrupt_nested_cache(directory):
    root = directory / "cache"
    damage(root, sorted(rows(root))[0], lambda raw: raw[:-10])


def _junk_store(tmp_path, finished):
    root = tmp_path / ".repro-cache"
    root.mkdir()
    store_path(root).write_bytes(b"not a database\n" * 64)
    return root


CORPORA = {
    **{
        f"cache-{case}": _cache_corpus(damage)
        for case, (damage, _, _) in CACHE_DAMAGE.items()
    },
    "cache-empty": _empty_cache_root,
    "cache-junk-store": _junk_store,
    **{
        f"campaign-checkpoint-{case}": _campaign_corpus(damage)
        for case, damage in CHECKPOINT_DAMAGE.items()
    },
    "campaign-corrupt-spec": _campaign_corpus(
        lambda d: (d / "spec.json").write_text("{")
    ),
    "campaign-invalid-spec": _campaign_corpus(
        lambda d: _rewrite_json(d / "spec.json", bogus=1)
    ),
    "campaign-manifest-junk": _campaign_corpus(
        lambda d: (d / "manifest.json").write_text("junk")
    ),
    "campaign-manifest-digest": _campaign_corpus(
        lambda d: _rewrite_json(d / "manifest.json", digest="0" * 64)
    ),
    "campaign-manifest-content": _campaign_corpus(_retarget_manifest),
    "campaign-tampered-report": _campaign_corpus(
        lambda d: _rewrite_json(d / "report.json", tasks=999)
    ),
    "campaign-partial-report": _campaign_corpus(_partial_report),
    "campaign-partial-report-uncovered": _campaign_corpus(
        lambda d: _partial_report(d, missing=(0,))
    ),
    "campaign-out-of-range-shard": _campaign_corpus(_out_of_range_result),
    "campaign-orphan-temp": _campaign_corpus(
        lambda d: (d / ".report.json-abc.tmp").write_text("partial")
    ),
    "campaign-nested-cache": _campaign_corpus(_corrupt_nested_cache),
    **{
        f"campaign-queue-{case}": _campaign_corpus(setup)
        for case, (setup, *_) in QUEUE_CASES.items()
    },
}


def _golden_passes(root) -> list:
    """The doctor's output on ``root`` for diagnose, repair, diagnose."""
    passes = []
    for repair in (False, True, False):
        report = diagnose(root, repair=repair)
        passes.append({
            "exit": 0 if report.ok() else 1,
            "text": report.render().replace(str(root), "<root>"),
            "json": json.dumps(report.as_dict(), indent=2, sort_keys=True)
            .replace(str(root), "<root>"),
        })
    return passes


@pytest.mark.parametrize("case", sorted(CORPORA))
def test_golden_output(finished_campaign, tmp_path, case):
    root = CORPORA[case](tmp_path, finished_campaign)
    assert _golden_passes(root) == json.loads(GOLDEN.read_text())[case]
