"""Tests for the content-addressed verdict cache."""

import json

import pytest

from repro.config import RunConfig
from repro.core import instances as gadgets
from repro.core.compose import rename_nodes
from repro.engine.cache import (
    CACHE_VERSION,
    VerdictCache,
    as_cache,
    verdict_key,
)
from repro.engine.execution import Execution
from repro.engine.explorer import can_oscillate
from repro.engine.parallel import ExplorationTask, run_explorations
from repro.models.taxonomy import ALL_MODELS, model

from .verdict_rows import edit_payload, rows, store_payload

BOUNDS = dict(
    queue_bound=3, max_states=200_000, reliable_twin_first=True,
    reduction="ample",
)


def result_tuple(result):
    return (
        result.model_name,
        result.oscillates,
        result.complete,
        result.states_explored,
        result.truncated_states,
        result.states_pruned,
    )


class TestKeys:
    def test_key_is_stable_and_parameter_sensitive(self, disagree):
        base = verdict_key(disagree, "R1O", **BOUNDS)
        assert base == verdict_key(disagree, "R1O", **BOUNDS)
        assert base != verdict_key(disagree, "REA", **BOUNDS)
        assert base != verdict_key(
            disagree, "R1O", **{**BOUNDS, "queue_bound": 4}
        )
        assert base != verdict_key(
            disagree, "R1O", **{**BOUNDS, "max_states": 17}
        )
        assert base != verdict_key(
            disagree, "R1O", **{**BOUNDS, "reliable_twin_first": False}
        )
        assert base != verdict_key(
            disagree, "R1O", **{**BOUNDS, "reduction": "none"}
        )

    def test_key_is_relabeling_invariant(self, disagree):
        renamed = rename_nodes(disagree, prefix="zz_")
        assert verdict_key(disagree, "R1O", **BOUNDS) == verdict_key(
            renamed, "R1O", **BOUNDS
        )

    def test_key_distinguishes_instances(self, disagree, fig7):
        assert verdict_key(disagree, "R1O", **BOUNDS) != verdict_key(
            fig7, "R1O", **BOUNDS
        )


class TestHitMiss:
    def test_miss_then_hit_round_trips_the_result(self, tmp_path, disagree):
        cache = VerdictCache(tmp_path)
        cold = can_oscillate(
            disagree, model("R1O"), config=RunConfig(queue_bound=3, cache=cache)
        )
        assert cache.misses == 1 and cache.hits == 0
        warm_cache = VerdictCache(tmp_path)  # fresh memo: forces a disk read
        warm = can_oscillate(
            disagree, model("R1O"), config=RunConfig(queue_bound=3, cache=warm_cache)
        )
        assert warm_cache.hits == 1 and warm_cache.misses == 0
        assert result_tuple(warm) == result_tuple(cold)
        assert warm.witness == cold.witness

    def test_relabeled_instance_hits_with_translated_witness(
        self, tmp_path, disagree
    ):
        can_oscillate(
            disagree,
            model("R1O"),
            config=RunConfig(queue_bound=3, cache=VerdictCache(tmp_path)),
        )
        renamed = rename_nodes(disagree, prefix="zz_")
        cache = VerdictCache(tmp_path)
        hit = can_oscillate(
            renamed, model("R1O"), config=RunConfig(queue_bound=3, cache=cache)
        )
        assert cache.hits == 1 and cache.misses == 0
        assert hit.oscillates and hit.witness is not None
        assert hit.instance_name == renamed.name
        # The stored witness was recorded on the original labels; the
        # translated replay must execute on the renamed instance.
        execution = Execution(renamed)
        for entry in hit.witness.prefix + hit.witness.cycle:
            execution.step(entry)

    def test_safety_verdicts_cache_too(self, tmp_path, disagree):
        cold = can_oscillate(
            disagree,
            model("REA"),
            config=RunConfig(queue_bound=3, cache=VerdictCache(tmp_path)),
        )
        assert not cold.oscillates and cold.witness is None
        cache = VerdictCache(tmp_path)
        warm = can_oscillate(
            disagree, model("REA"), config=RunConfig(queue_bound=3, cache=cache)
        )
        assert cache.hits == 1
        assert result_tuple(warm) == result_tuple(cold)

    def test_different_bounds_do_not_collide(self, tmp_path, disagree):
        can_oscillate(
            disagree,
            model("R1O"),
            config=RunConfig(queue_bound=3, cache=VerdictCache(tmp_path)),
        )
        cache = VerdictCache(tmp_path)
        can_oscillate(
            disagree, model("R1O"), config=RunConfig(queue_bound=2, cache=cache)
        )
        assert cache.hits == 0 and cache.misses == 1


class TestRobustness:
    def _populate_one(self, tmp_path, disagree):
        cache = VerdictCache(tmp_path)
        key = verdict_key(disagree, "R1O", **BOUNDS)
        can_oscillate(
            disagree, model("R1O"), config=RunConfig(queue_bound=3, cache=cache)
        )
        return key

    def test_corrupt_row_is_removed_and_refilled(self, tmp_path, disagree):
        key = self._populate_one(tmp_path, disagree)
        store_payload(tmp_path, key, "{not json")
        cache = VerdictCache(tmp_path)
        result = can_oscillate(
            disagree, model("R1O"), config=RunConfig(queue_bound=3, cache=cache)
        )
        assert cache.misses == 1 and cache.quarantined == 1
        assert result.oscillates  # recomputed and re-stored
        assert json.loads(rows(tmp_path)[key])["model_name"] == "R1O"

    def test_version_skew_is_a_miss(self, tmp_path, disagree):
        key = self._populate_one(tmp_path, disagree)
        edit_payload(tmp_path, key, cache_version=CACHE_VERSION + 1)
        cache = VerdictCache(tmp_path)
        assert cache.get(key, disagree) is None
        assert cache.misses == 1

    def test_put_is_write_once(self, tmp_path, disagree):
        key = self._populate_one(tmp_path, disagree)
        before = rows(tmp_path)
        cache = VerdictCache(tmp_path)
        result = cache.get(key, disagree)
        cache.put(key, disagree, result)
        assert rows(tmp_path) == before
        assert cache.writes == 0

    def test_row_holds_the_canonical_payload_text(self, tmp_path, disagree):
        """A row is byte for byte the entry file the store used to write,
        so payloads, ``stats()["bytes"]`` and ``CACHE_VERSION`` carry over."""
        from repro.engine.cache import result_to_payload

        key = self._populate_one(tmp_path, disagree)
        result = can_oscillate(disagree, model("R1O"), config=RunConfig(queue_bound=3))
        text = json.dumps(
            result_to_payload(result, disagree), separators=(",", ":"),
            sort_keys=True, allow_nan=False,
        ).encode()
        assert rows(tmp_path) == {key: text}
        assert VerdictCache(tmp_path).stats()["bytes"] == len(text)


class TestMaintenance:
    def _populate(self, tmp_path, disagree, names=("R1O", "REA", "UMS")):
        cache = VerdictCache(tmp_path)
        for name in names:
            can_oscillate(
                disagree, model(name), config=RunConfig(queue_bound=3, cache=cache)
            )
        return cache

    def test_stats_counts_entries(self, tmp_path, disagree):
        cache = self._populate(tmp_path, disagree)
        stats = cache.stats()
        assert stats["entries"] == 3
        assert stats["bytes"] == sum(map(len, rows(tmp_path).values()))
        assert stats["misses"] == 3

    def test_clear_removes_everything(self, tmp_path, disagree):
        cache = self._populate(tmp_path, disagree)
        assert cache.clear() == 3
        assert cache.stats()["entries"] == 0
        # Post-clear lookups recompute from scratch.
        can_oscillate(
            disagree, model("R1O"), config=RunConfig(queue_bound=3, cache=cache)
        )
        assert cache.stats()["entries"] == 1

    def test_reading_an_absent_store_creates_nothing(self, tmp_path, disagree):
        root = tmp_path / "never-written"
        cache = VerdictCache(root)
        assert cache.get(verdict_key(disagree, "R1O", **BOUNDS), disagree) is None
        assert cache.stats()["entries"] == 0
        assert cache.clear() == 0
        assert not root.exists()

    def test_stats_counts_writes(self, tmp_path, disagree):
        from repro import obs

        previous = obs.active()
        telemetry = obs.configure(None)
        try:
            cache = self._populate(tmp_path, disagree)
        finally:
            obs.install(previous)
        stats = cache.stats()
        assert stats["writes"] == 3
        assert telemetry.counters["cache.write"] == 3
        assert telemetry.counters["cache.miss"] == 3


class TestParallelSharing:
    def test_workers_share_one_cache_directory(self, tmp_path, disagree):
        tasks = [
            ExplorationTask(
                instance=disagree,
                model_name=m.name,
                key=(m.name,),
                queue_bound=3,
                cache_dir=str(tmp_path),
            )
            for m in ALL_MODELS
        ]
        cold = dict(
            (key[0], result)
            for key, result in run_explorations(tasks, config=RunConfig(workers=4))
        )
        assert VerdictCache(tmp_path).stats()["entries"] == len(ALL_MODELS)
        warm = dict(
            (key[0], result)
            for key, result in run_explorations(tasks, config=RunConfig(workers=4))
        )
        for name in cold:
            assert result_tuple(warm[name]) == result_tuple(cold[name])
            assert warm[name].witness == cold[name].witness


class TestAsCache:
    def test_coercions(self, tmp_path):
        cache = VerdictCache(tmp_path)
        assert as_cache(None) is None
        assert as_cache(cache) is cache
        assert as_cache(str(tmp_path)).root == cache.root
        assert as_cache(tmp_path).root == cache.root
        with pytest.raises(TypeError):
            as_cache(42)

    def test_true_opens_the_default_directory(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        assert as_cache(True).root == tmp_path / "env"


class TestHotTier:
    def put_one(self, cache, instance, model_name="R1O"):
        result = can_oscillate(
            instance, model(model_name), config=RunConfig(cache=cache)
        )
        return verdict_key(instance, model_name, **BOUNDS), result

    def test_repeat_read_is_served_from_memory(self, tmp_path, disagree):
        cache = VerdictCache(tmp_path)
        key, _ = self.put_one(cache, disagree)
        assert cache.mem_hits == 0
        payload, tier = cache.get_payload(key)
        assert tier == "memory" and payload is not None
        assert cache.mem_hits == 1 and cache.hits == 1
        # A fresh cache pays the disk read once, then stays in memory.
        fresh = VerdictCache(tmp_path)
        assert fresh.get_payload(key)[1] == "disk"
        assert fresh.get_payload(key)[1] == "memory"
        assert fresh.mem_hits == 1

    def test_memory_hits_skip_disk_entirely(self, tmp_path, disagree):
        cache = VerdictCache(tmp_path)
        key, cold = self.put_one(cache, disagree)
        # Destroy the store: a memo-resident key must still answer.
        for path in tmp_path.glob("verdicts.sqlite*"):
            path.unlink()
        warm = can_oscillate(disagree, model("R1O"), config=RunConfig(cache=cache))
        assert result_tuple(warm) == result_tuple(cold)
        assert warm.cache_hit

    def test_memo_is_bounded_lru(self, tmp_path, disagree):
        cache = VerdictCache(tmp_path, memo_entries=2)
        for name in ("R1O", "RMS", "REA"):
            can_oscillate(disagree, model(name), config=RunConfig(cache=cache))
        assert cache.mem_evictions == 1
        evicted = verdict_key(disagree, "R1O", **BOUNDS)
        resident = verdict_key(disagree, "REA", **BOUNDS)
        assert cache.peek_memo(evicted) is None
        assert cache.peek_memo(resident) is not None
        # The evicted key is still on disk — one read re-admits it.
        assert cache.get_payload(evicted)[1] == "disk"
        assert cache.get_payload(evicted)[1] == "memory"

    def test_lru_touch_order_protects_hot_keys(self, tmp_path, disagree):
        cache = VerdictCache(tmp_path, memo_entries=2)
        first = verdict_key(disagree, "R1O", **BOUNDS)
        can_oscillate(disagree, model("R1O"), config=RunConfig(cache=cache))
        can_oscillate(disagree, model("RMS"), config=RunConfig(cache=cache))
        cache.get_payload(first)  # touch: R1O becomes most recent
        # Evicts RMS.
        can_oscillate(disagree, model("REA"), config=RunConfig(cache=cache))
        assert cache.peek_memo(first) is not None
        assert cache.peek_memo(verdict_key(disagree, "RMS", **BOUNDS)) is None

    def test_memo_disabled_with_zero_entries(self, tmp_path, disagree):
        cache = VerdictCache(tmp_path, memo_entries=0)
        key, _ = self.put_one(cache, disagree)
        assert cache.peek_memo(key) is None
        assert cache.get_payload(key)[1] == "disk"
        assert cache.get_payload(key)[1] == "disk"
        assert cache.mem_hits == 0

    def test_memo_env_override(self, tmp_path, disagree, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MEMO", "1")
        cache = VerdictCache(tmp_path)
        assert cache.memo_entries == 1
        can_oscillate(disagree, model("R1O"), config=RunConfig(cache=cache))
        can_oscillate(disagree, model("RMS"), config=RunConfig(cache=cache))
        assert cache.mem_evictions == 1

    def test_negative_memo_entries_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            VerdictCache(tmp_path, memo_entries=-1)

    def test_stats_report_the_hot_tier(self, tmp_path, disagree):
        cache = VerdictCache(tmp_path)
        key, _ = self.put_one(cache, disagree)
        cache.get_payload(key)
        stats = cache.stats()
        assert stats["mem_hits"] == 1
        assert stats["mem_evictions"] == 0
        assert stats["memo_resident"] == 1
        assert stats["memo_entries"] == cache.memo_entries

    def test_payload_round_trip_is_bit_identical(self, tmp_path, disagree):
        from dataclasses import replace

        from repro.engine.cache import result_from_payload, result_to_payload

        cold = can_oscillate(disagree, model("R1O"))
        payload = result_to_payload(cold, disagree)
        decoded = result_from_payload(payload, disagree)
        assert replace(decoded, cache_hit=False) == replace(cold, cache_hit=False)
        assert decoded.witness == cold.witness

    def test_payload_tamper_and_version_skew_rejected(self, disagree):
        from repro.engine.cache import result_from_payload, result_to_payload

        payload = result_to_payload(can_oscillate(disagree, model("REA")), disagree)
        with pytest.raises(ValueError):
            result_from_payload({**payload, "oscillates": True}, disagree)
        with pytest.raises(ValueError):
            result_from_payload({**payload, "cache_version": CACHE_VERSION + 1}, disagree)
        with pytest.raises(ValueError):
            result_from_payload("not a dict", disagree)

    def test_non_finite_floats_fail_when_written(self):
        from repro.engine.cache import payload_checksum

        # JSON has no ∞: a leaked float would otherwise be written as
        # the non-standard token Infinity.
        with pytest.raises(ValueError):
            payload_checksum({"count": float("inf")})


class TestSharedCache:
    def test_same_directory_returns_same_object(self, tmp_path):
        from repro.engine.cache import shared_cache

        a = shared_cache(tmp_path)
        b = shared_cache(str(tmp_path))
        assert a is b
        assert shared_cache(tmp_path / "other") is not a

    def test_in_process_tasks_share_the_hot_tier(self, tmp_path, disagree):
        from repro.config import RunConfig
        from repro.engine.cache import shared_cache

        config = RunConfig(workers=1)  # in-process: one shared memo
        tasks = [
            ExplorationTask(
                instance=disagree,
                model_name=name,
                queue_bound=3,
                cache_dir=str(tmp_path),
            )
            for name in ("R1O", "RMS")
        ]
        run_explorations(tasks, config=config)
        shared = shared_cache(tmp_path)
        assert shared.writes == 2
        # A re-run hits the shared memo, not the disk.
        run_explorations(tasks, config=config)
        assert shared.mem_hits == 2
