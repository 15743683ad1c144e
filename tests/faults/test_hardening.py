"""Storage hardening under injected faults: degrade, retry, quarantine.

These are the fast, single-operation counterparts of the campaign-level
chaos suite: each test arms a plan around exactly one hardened
primitive and asserts the documented failure-model behaviour
(``docs/robustness.md``).
"""

import errno
import json
import os
import time

import pytest

from repro import faults
from repro.campaign import Campaign, CampaignSpec
from repro.campaign.manifest import read_json
from repro.core.instances import ALL_NAMED_INSTANCES
from repro.engine.cache import (
    CACHE_VERSION,
    QUARANTINE_DIR,
    VerdictCache,
    payload_checksum,
    verdict_key,
)
from repro.engine.explorer import ExplorationResult
from repro.faults import FaultPlan
from repro.fsutil import atomic_write_text, sweep_orphan_temps
from repro.obs import Telemetry, install


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
    assert not list((tmp_path / "cache").rglob("*.json"))
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
    # The entry itself was never touched: disarmed, it hits again.
    assert VerdictCache(tmp_path / "cache").get(
        _key(instance), instance
    ) == _result(instance)


def test_corrupt_entry_is_quarantined_and_recomputable(tmp_path, telemetry):
    instance = _instance()
    root = tmp_path / "cache"
    cache = VerdictCache(root)
    key = _key(instance)
    cache.put(key, instance, _result(instance))
    [entry] = list(root.rglob("*/*.json"))
    blob = bytearray(entry.read_bytes())
    blob[len(blob) // 2] ^= 0x40  # silent bit rot
    entry.write_bytes(bytes(blob))

    fresh = VerdictCache(root)
    assert fresh.get(key, instance) is None
    assert fresh.quarantined == 1
    assert telemetry.counters["cache.quarantined"] == 1
    assert not entry.exists()
    assert len(list((root / QUARANTINE_DIR).iterdir())) == 1
    # The write-once slot refills with a healthy entry.
    fresh.put(key, instance, _result(instance))
    assert VerdictCache(root).get(key, instance) == _result(instance)
    assert fresh.stats()["in_quarantine"] == 1


def test_repeat_corruption_of_one_key_keeps_every_copy(tmp_path):
    """A second quarantine of the same key must not overwrite the first
    post-mortem copy (the rule ``repro doctor --repair`` follows too)."""
    instance = _instance()
    root = tmp_path / "cache"
    key = _key(instance)
    for _ in range(2):
        VerdictCache(root).put(key, instance, _result(instance))
        entry = VerdictCache(root)._path(key)
        entry.write_text("{not json")
        assert VerdictCache(root).get(key, instance) is None
    kept = sorted(p.name for p in (root / QUARANTINE_DIR).iterdir())
    assert kept == [entry.name, f"{entry.name}.1"]


def test_stale_cache_version_is_quarantined_and_refilled(tmp_path):
    instance = _instance()
    root = tmp_path / "cache"
    cache = VerdictCache(root)
    key = _key(instance)
    cache.put(key, instance, _result(instance))
    [entry] = list(root.rglob("*/*.json"))
    payload = json.loads(entry.read_text())
    payload["cache_version"] = CACHE_VERSION - 1
    payload["checksum"] = payload_checksum(payload)
    entry.write_text(json.dumps(payload))

    fresh = VerdictCache(root)
    assert fresh.get(key, instance) is None
    assert fresh.quarantined == 1
    fresh.put(key, instance, _result(instance))
    found = json.loads(entry.read_text())
    assert found["cache_version"] == CACHE_VERSION


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
    shard = campaign.paths.shard_path(0)
    shard.parent.mkdir(parents=True, exist_ok=True)
    shard.write_text("garbage")
    status = campaign.status()
    assert status["checkpoints_discarded"] == 1
    assert status["shards_pending"] == 2
