"""CampaignSpec: validation, serialization round-trips, sharding, digest."""

import pytest

from repro.campaign import MODES, CampaignSpec, spec_digest


class TestValidation:
    def test_minimal_spec(self):
        spec = CampaignSpec(name="tiny", count=3)
        assert spec.mode == "explore"
        assert spec.model_names() and len(spec.model_names()) == 24

    def test_bad_name_rejected(self):
        with pytest.raises(ValueError, match="slug"):
            CampaignSpec(name="has space", count=1)
        with pytest.raises(ValueError, match="slug"):
            CampaignSpec(name="", count=1)

    def test_bad_counts_rejected(self):
        with pytest.raises(ValueError, match="count"):
            CampaignSpec(name="x", count=0)
        with pytest.raises(ValueError, match="shard_size"):
            CampaignSpec(name="x", count=1, shard_size=0)

    def test_unknown_mode_rejected(self):
        assert MODES == ("explore", "simulate")
        with pytest.raises(ValueError, match="mode"):
            CampaignSpec(name="x", count=1, mode="fuzz")

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError, match="unknown model"):
            CampaignSpec(name="x", count=1, models=("RMS", "ZZZ"))

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            CampaignSpec(name="x", count=1, policy="bogus")

    def test_shared_knobs_validated_via_runconfig(self):
        with pytest.raises(ValueError, match="unknown reduction"):
            CampaignSpec(name="x", count=1, reduction="bogus")
        with pytest.raises(ValueError, match="queue_bound"):
            CampaignSpec(name="x", count=1, queue_bound=0)


class TestSharding:
    def test_shard_count_rounds_up(self):
        assert CampaignSpec(name="x", count=10, shard_size=4).n_shards == 3
        assert CampaignSpec(name="x", count=8, shard_size=4).n_shards == 2
        assert CampaignSpec(name="x", count=1, shard_size=8).n_shards == 1

    def test_shard_seeds_partition_the_population(self):
        spec = CampaignSpec(name="x", count=10, shard_size=4, base_seed=100)
        seeds = [
            seed
            for shard in range(spec.n_shards)
            for seed in spec.shard_seeds(shard)
        ]
        assert seeds == list(range(100, 110))
        assert spec.shard_seeds(2) == (108, 109)

    def test_shard_out_of_range(self):
        spec = CampaignSpec(name="x", count=4, shard_size=4)
        with pytest.raises(ValueError, match="out of range"):
            spec.shard_seeds(1)

    def test_instances_are_deterministic(self):
        spec = CampaignSpec(name="x", count=2, n_nodes=5)
        a = spec.instance_for_seed(7)
        b = spec.instance_for_seed(7)
        assert a.edges == b.edges and a.permitted == b.permitted


class TestSerialization:
    def test_json_round_trip(self):
        spec = CampaignSpec(
            name="round-trip",
            count=12,
            models=("RMS", "R1O"),
            mode="simulate",
            shard_size=5,
            step_bound=300,
            seeds_per_instance=2,
        )
        assert CampaignSpec.from_json(spec.to_json()) == spec

    def test_file_round_trip(self, tmp_path):
        spec = CampaignSpec(name="file-trip", count=2)
        path = tmp_path / "spec.json"
        spec.to_file(path)
        assert CampaignSpec.from_file(path) == spec
        assert path.read_text() == spec.to_json()

    def test_to_file_is_atomic(self, tmp_path, monkeypatch):
        """A write that fails before the rename leaves the old spec whole."""
        import os

        path = tmp_path / "spec.json"
        CampaignSpec(name="old", count=2).to_file(path)
        before = path.read_bytes()

        def failing_replace(src, dst):
            raise OSError(5, "simulated I/O error")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError):
            CampaignSpec(name="new", count=3).to_file(path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["spec.json"]

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown campaign spec key"):
            CampaignSpec.from_dict({"name": "x", "count": 1, "typo_key": 3})

    def test_partial_dict_uses_defaults(self):
        spec = CampaignSpec.from_dict({"name": "x", "count": 4})
        assert spec == CampaignSpec(name="x", count=4)


class TestDigest:
    def test_digest_stable_across_round_trip(self):
        spec = CampaignSpec(name="x", count=4, models=("RMS",))
        again = CampaignSpec.from_json(spec.to_json())
        assert spec_digest(spec) == spec_digest(again)

    def test_digest_differs_on_any_field(self):
        base = CampaignSpec(name="x", count=4)
        assert spec_digest(base) != spec_digest(
            CampaignSpec(name="x", count=5)
        )
        assert spec_digest(base) != spec_digest(
            CampaignSpec(name="x", count=4, queue_bound=2)
        )

    def test_run_config_carries_spec_bounds(self, tmp_path):
        spec = CampaignSpec(name="x", count=1, queue_bound=2, step_bound=999)
        config = spec.run_config(cache_dir=str(tmp_path))
        assert config.queue_bound == 2
        assert config.max_states == 999
        assert config.cache_dir == str(tmp_path)
        no_cache = CampaignSpec(name="x", count=1, cache=False)
        assert no_cache.run_config(cache_dir=str(tmp_path)).cache_dir is None
