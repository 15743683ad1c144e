"""Storage hardening under injected faults: degrade, retry, discard.

These are the fast, single-operation counterparts of the campaign-level
chaos suite: each test arms a plan around exactly one hardened
primitive and asserts the documented failure-model behaviour
(``docs/robustness.md``).
"""

import errno
import json
import os
import time
from dataclasses import replace

import pytest

from repro import faults
from repro.campaign import Campaign, CampaignSpec
from repro.campaign.manifest import read_json
from repro.core.instances import ALL_NAMED_INSTANCES
from repro.engine.cache import (
    CACHE_VERSION,
    VerdictCache,
    payload_checksum,
    verdict_key,
)
from repro.engine.cache import audit as audit_cache
from repro.engine.explorer import ExplorationResult
from repro.faults import FaultPlan
from repro.fsutil import QUARANTINE_DIR, atomic_write_text, sweep_orphan_temps
from repro.obs import Telemetry, install

from ..campaign.rows import store_result
from ..engine.verdict_rows import damage, rows, store_path, store_payload


@pytest.fixture()
def telemetry():
    """A memory-only live telemetry installed for the test."""
    sink = Telemetry()
    previous = install(sink)
    yield sink
    install(previous)


def _instance():
    return ALL_NAMED_INSTANCES["disagree"]()


def _result(instance):
    return ExplorationResult(
        model_name="R1O",
        instance_name=instance.name,
        oscillates=False,
        complete=True,
        states_explored=5,
        truncated_states=0,
    )


def _key(instance):
    return verdict_key(
        instance,
        "R1O",
        queue_bound=2,
        max_states=1000,
        reliable_twin_first=False,
        reduction="ample",
    )


# ----------------------------------------------------------------------
# atomic_write_text: ENOSPC retry with backoff.
# ----------------------------------------------------------------------

def test_transient_enospc_is_retried(tmp_path, telemetry):
    plan = FaultPlan(
        rules=({"site": "checkpoint.write", "kind": "enospc", "times": 2},)
    )
    target = tmp_path / "out.json"
    with faults.armed(plan):
        atomic_write_text(target, "payload", fault_site="checkpoint.write",
                          backoff=0.001)
    assert target.read_text() == "payload"
    assert telemetry.counters["storage.enospc_retry"] == 2


def test_persistent_enospc_exhausts_and_raises(tmp_path):
    plan = FaultPlan(rules=({"site": "checkpoint.write", "kind": "enospc"},))
    with faults.armed(plan):
        with pytest.raises(OSError) as caught:
            atomic_write_text(
                tmp_path / "out.json", "payload",
                fault_site="checkpoint.write", retries=2, backoff=0.001,
            )
    assert caught.value.errno == errno.ENOSPC
    assert not (tmp_path / "out.json").exists()
    # No tempfile debris either: the failed attempts cleaned up.
    assert not list(tmp_path.glob(".*.tmp"))


def test_fault_mutation_never_leaks_across_retries(tmp_path):
    # A truncate followed by a transient ENOSPC: the retry must write
    # the *original* text, not the mutated attempt.
    plan = FaultPlan(
        rules=(
            {"site": "checkpoint.write", "kind": "truncate", "times": 1},
            {"site": "checkpoint.write", "kind": "enospc", "times": 1},
        )
    )
    target = tmp_path / "out.json"
    with faults.armed(plan):
        atomic_write_text(target, "full payload", fault_site="checkpoint.write",
                          backoff=0.001)
    assert target.read_text() == "full payload"


# ----------------------------------------------------------------------
# Verdict cache: write/read degradation and quarantine.
# ----------------------------------------------------------------------

def test_cache_write_failure_degrades_to_memo(tmp_path, telemetry):
    instance = _instance()
    cache = VerdictCache(tmp_path / "cache")
    plan = FaultPlan(rules=({"site": "cache.write", "kind": "enospc"},))
    with faults.armed(plan):
        cache.put(_key(instance), instance, _result(instance))
    assert cache.io_errors == 1
    assert telemetry.counters["cache.io_error"] == 1
    assert rows(tmp_path / "cache") == {}
    # The in-process memo still serves the result.
    assert cache.get(_key(instance), instance) == _result(instance)


def test_cache_read_failure_is_a_miss_not_an_abort(tmp_path, telemetry):
    instance = _instance()
    cache = VerdictCache(tmp_path / "cache")
    cache.put(_key(instance), instance, _result(instance))
    fresh = VerdictCache(tmp_path / "cache")
    plan = FaultPlan(rules=({"site": "cache.read", "kind": "raise"},))
    with faults.armed(plan):
        assert fresh.get(_key(instance), instance) is None
    assert fresh.io_errors == 1
    # The row itself was never touched: disarmed, it hits again.
    assert VerdictCache(tmp_path / "cache").get(
        _key(instance), instance
    ) == _result(instance)


def test_corrupt_row_is_removed_and_recomputable(tmp_path, telemetry):
    instance = _instance()
    root = tmp_path / "cache"
    cache = VerdictCache(root)
    key = _key(instance)
    cache.put(key, instance, _result(instance))

    def rot(raw):
        blob = bytearray(raw)
        blob[len(blob) // 2] ^= 0x40  # silent bit rot
        return bytes(blob)

    damage(root, key, rot)
    fresh = VerdictCache(root)
    assert fresh.get(key, instance) is None
    assert fresh.quarantined == 1
    assert telemetry.counters["cache.quarantined"] == 1
    assert rows(root) == {}
    # The write-once slot refills with a healthy row.
    fresh.put(key, instance, _result(instance))
    assert VerdictCache(root).get(key, instance) == _result(instance)


def test_stale_cache_version_is_removed_and_refilled(tmp_path):
    instance = _instance()
    root = tmp_path / "cache"
    cache = VerdictCache(root)
    key = _key(instance)
    cache.put(key, instance, _result(instance))
    payload = json.loads(rows(root)[key])
    payload["cache_version"] = CACHE_VERSION - 1
    payload["checksum"] = payload_checksum(payload)
    store_payload(root, key, json.dumps(payload))

    fresh = VerdictCache(root)
    assert fresh.get(key, instance) is None
    assert fresh.quarantined == 1
    fresh.put(key, instance, _result(instance))
    assert json.loads(rows(root)[key])["cache_version"] == CACHE_VERSION


def test_a_row_changed_since_it_was_read_is_not_deleted(tmp_path):
    """Deleting a bad row is guarded by the text that was read: a
    healthy row another process stored in between survives."""
    instance = _instance()
    root = tmp_path / "cache"
    key = _key(instance)
    VerdictCache(root).put(key, instance, _result(instance))
    healthy = rows(root)[key]
    store_payload(root, key, "{rotten")
    reader = VerdictCache(root)
    reader._with_store(lambda conn: None)  # open before the row heals
    store_payload(root, key, healthy)
    reader._discard(key, b"{rotten")
    assert rows(root) == {key: healthy}


@pytest.mark.parametrize("kind", ["truncate", "bitflip"])
def test_damaged_cache_write_is_caught_on_the_next_read(tmp_path, telemetry, kind):
    instance = _instance()
    root = tmp_path / "cache"
    with faults.armed(FaultPlan(rules=({"site": "cache.write", "kind": kind},))):
        VerdictCache(root).put(_key(instance), instance, _result(instance))
    assert audit_cache(root)[0] == 0  # the stored row is unusable
    fresh = VerdictCache(root)
    assert fresh.get(_key(instance), instance) is None
    assert fresh.quarantined == 1
    # Recomputed and stored again, undamaged this time.
    fresh.put(_key(instance), instance, _result(instance))
    assert VerdictCache(root, memo_entries=0).get(
        _key(instance), instance
    ) == _result(instance)
    assert audit_cache(root) == (1, [])


def test_junk_store_gives_identical_verdicts_and_is_set_aside(
    tmp_path, telemetry, capsys
):
    from repro import cli
    from repro.analysis.experiments import matrix_certification
    from repro.config import RunConfig

    instance = _instance()
    config = RunConfig(workers=1, queue_bound=2, cache=False)
    expected = matrix_certification(instance=instance, config=config)
    root = tmp_path / "cache"
    root.mkdir()
    junk = b"not a database\n" * 64
    store_path(root).write_bytes(junk)

    found = matrix_certification(
        instance=instance, config=config.replace(cache=VerdictCache(root))
    )
    assert {name: replace(r, cache_hit=False) for name, r in found.items()} == expected
    # One failed batch read and one failed batch write.
    assert telemetry.counters["cache.io_error"] == 2
    assert store_path(root).read_bytes() == junk  # never overwritten

    assert cli.main(["doctor", str(root)]) == 1
    assert "unreadable store" in capsys.readouterr().out
    assert cli.main(["doctor", str(root), "--repair"]) == 0
    assert not store_path(root).exists()
    assert (root / QUARANTINE_DIR / "verdicts.sqlite").read_bytes() == junk
    # The next run starts a fresh store.
    VerdictCache(root).put(_key(instance), instance, _result(instance))
    assert audit_cache(root) == (1, [])


# ----------------------------------------------------------------------
# Telemetry sink degradation.
# ----------------------------------------------------------------------

def test_telemetry_sink_degrades_on_write_failure(tmp_path, capsys):
    plan = FaultPlan(
        rules=({"site": "telemetry.emit", "kind": "raise", "times": 1},)
    )
    sink = Telemetry(tmp_path / "events.jsonl")
    try:
        with faults.armed(plan):
            sink.event("boom", detail=1)
        assert sink._handle is None
        assert sink.counters["telemetry.emit_error"] == 1
        assert "telemetry sink disabled" in capsys.readouterr().err
        # The event that hit the failure was dropped — and counted.
        assert sink.counters["telemetry.events_dropped"] == 1
        # Later events are dropped *audibly* (the counter keeps score),
        # and the other registries keep working.
        sink.event("after", detail=2)
        sink.count("still.counting")
        assert sink.counters["telemetry.events_dropped"] == 2
        assert sink.counters["still.counting"] == 1
    finally:
        sink.close()


def test_memory_only_telemetry_counts_no_drops(tmp_path):
    # No sink was requested (path=None): events go nowhere by design,
    # which is not a drop — the counter stays clean.
    sink = Telemetry(None)
    sink.event("fine", detail=1)
    sink.close()
    assert "telemetry.events_dropped" not in sink.counters


# ----------------------------------------------------------------------
# Orphan tempfiles.
# ----------------------------------------------------------------------

def test_sweep_removes_only_stale_tempfiles(tmp_path, telemetry):
    stale = tmp_path / ".report.json-abc.tmp"
    fresh = tmp_path / ".report.json-def.tmp"
    stale.write_text("old")
    fresh.write_text("new")
    old = time.time() - 3600
    os.utime(stale, (old, old))
    assert sweep_orphan_temps(tmp_path, max_age_s=300) == 1
    assert not stale.exists()
    assert fresh.exists()
    assert telemetry.counters["storage.orphan_swept"] == 1


# ----------------------------------------------------------------------
# Checkpoint discard visibility (satellite: never silent).
# ----------------------------------------------------------------------

def test_read_json_warns_and_counts_discards(tmp_path, telemetry, capsys):
    bad = tmp_path / "shard-0000.json"
    bad.write_text("{ not json")
    assert read_json(bad) is None
    assert telemetry.counters["campaign.checkpoint_discarded"] == 1
    err = capsys.readouterr().err
    assert "shard-0000.json" in err and "discarding" in err
    # warn=False stays quiet on stderr but still counts.
    assert read_json(bad, warn=False) is None
    assert telemetry.counters["campaign.checkpoint_discarded"] == 2
    assert capsys.readouterr().err == ""


def test_missing_file_is_silent(tmp_path, telemetry, capsys):
    assert read_json(tmp_path / "absent.json") is None
    assert "campaign.checkpoint_discarded" not in telemetry.counters
    assert capsys.readouterr().err == ""


def test_campaign_status_surfaces_discarded_checkpoints(tmp_path, capsys):
    spec = CampaignSpec(
        name="discard", count=4, models=("R1O",), shard_size=2,
        n_nodes=4, queue_bound=2, step_bound=20000,
    )
    campaign = Campaign.create(tmp_path / "camp", spec)
    campaign.run(workers=1, max_shards=1)
    store_result(campaign.paths.directory, 0, "garbage")
    status = campaign.status()
    assert status["checkpoints_discarded"] == 1
    assert status["shards_pending"] == 2
    assert "discarding the result of shard 0" in capsys.readouterr().err
