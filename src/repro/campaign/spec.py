"""Campaign specifications: what a survey sweeps, written as JSON.

A campaign is a *declarative* object — everything the runner does is a
deterministic function of the spec, so the spec's canonical digest
doubles as the campaign's identity: the manifest and every shard
checkpoint embed it, and resuming against a directory whose digest
differs from the spec is refused instead of silently mixing results.

Sharding is part of the spec, not the runner: shard ``i`` owns the
instances with seeds ``base_seed + i*shard_size …`` (``shard_size``
instances, the last shard possibly fewer), and each instance is crossed
with every model in ``models``.  A shard is therefore re-executable in
isolation — the unit of checkpointing and crash recovery.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from ..config import DEFAULT_ENGINE, RunConfig
from ..core.generators import POLICIES, random_instance

__all__ = ["CampaignSpec", "MODES", "spec_digest"]

#: What each task of a shard computes: a bounded oscillation search per
#: (instance, model), or a batch of seeded fair simulations per
#: (instance, model).
MODES = ("explore", "simulate")


@dataclass(frozen=True)
class CampaignSpec:
    """One survey campaign over a random-instance population."""

    name: str
    #: Size of the instance population (consecutive generator seeds).
    count: int
    #: Model names to sweep; ``()`` means the full 24-model taxonomy.
    models: tuple = ()
    mode: str = "explore"
    #: Instances per shard (the checkpoint/recovery granularity).
    shard_size: int = 8

    # -- generator parameters (repro.core.generators.random_instance) --
    base_seed: int = 0
    n_nodes: int = 4
    extra_edge_prob: float = 0.3
    max_paths_per_node: int = 4
    max_path_length: int = 5
    policy: str = "random"

    # -- search/simulation bounds --------------------------------------
    queue_bound: int = 3
    #: ``max_states`` (explore) / ``max_steps`` (simulate); ``None``
    #: uses the :class:`repro.RunConfig` defaults.
    step_bound: "int | None" = None
    reliable_twin_first: bool = True
    #: Simulation runs per (instance, model), seeds ``0..n-1``.
    seeds_per_instance: int = 3
    drop_prob: float = 0.2

    # -- execution knobs (identical results either way) ----------------
    engine: str = DEFAULT_ENGINE
    reduction: str = "ample"
    #: Share a content-addressed verdict cache under the campaign
    #: directory (explore mode); retried and resumed tasks then answer
    #: from the cache instead of re-searching.
    cache: bool = True
    #: Extra attempts per task after a worker crash/timeout.
    retries: int = 2
    #: Base of the exponential retry backoff, in seconds.
    retry_backoff: float = 0.25
    #: Seconds before a task is declared hung (``None`` = never).
    task_timeout: "float | None" = None

    def __post_init__(self) -> None:
        if not self.name or not self.name.replace("-", "").replace("_", "").isalnum():
            raise ValueError(
                f"campaign name must be a non-empty [-_a-zA-Z0-9] slug, got {self.name!r}"
            )
        if self.count < 1:
            raise ValueError("count must be at least 1")
        if self.shard_size < 1:
            raise ValueError("shard_size must be at least 1")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown policy {self.policy!r}; expected one of {POLICIES}"
            )
        if self.seeds_per_instance < 1:
            raise ValueError("seeds_per_instance must be at least 1")
        if self.retries < 0:
            raise ValueError("retries must be non-negative")
        from ..models.taxonomy import ALL_MODELS

        known = {m.name for m in ALL_MODELS}
        object.__setattr__(self, "models", tuple(self.models))
        unknown = [name for name in self.models if name not in known]
        if unknown:
            raise ValueError(f"unknown model name(s): {', '.join(unknown)}")
        # The RunConfig constructor validates the shared knobs.
        self.run_config()

    # -- derived structure ---------------------------------------------
    def model_names(self) -> tuple:
        """The swept models; the full taxonomy when ``models`` is empty."""
        if self.models:
            return self.models
        from ..models.taxonomy import ALL_MODELS

        return tuple(m.name for m in ALL_MODELS)

    @property
    def n_shards(self) -> int:
        return -(-self.count // self.shard_size)

    def shard_seeds(self, shard: int) -> tuple:
        """The generator seeds shard ``shard`` owns, in order."""
        if not 0 <= shard < self.n_shards:
            raise ValueError(f"shard {shard} out of range 0..{self.n_shards - 1}")
        start = self.base_seed + shard * self.shard_size
        stop = min(start + self.shard_size, self.base_seed + self.count)
        return tuple(range(start, stop))

    def instance_for_seed(self, seed: int):
        """Materialize the population member with generator seed ``seed``."""
        return random_instance(
            seed,
            n_nodes=self.n_nodes,
            extra_edge_prob=self.extra_edge_prob,
            max_paths_per_node=self.max_paths_per_node,
            max_path_length=self.max_path_length,
            policy=self.policy,
        )

    def run_config(self, cache_dir: "str | None" = None) -> RunConfig:
        """The :class:`repro.RunConfig` the spec's tasks run under."""
        return RunConfig(
            engine=self.engine,
            reduction=self.reduction,
            cache_dir=cache_dir if self.cache else None,
            queue_bound=self.queue_bound,
            step_bound=self.step_bound,
        )

    # -- serialization --------------------------------------------------
    def as_dict(self) -> dict:
        data = dataclasses.asdict(self)
        data["models"] = list(self.models)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignSpec":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown campaign spec key(s): {', '.join(unknown)}")
        if "models" in data:
            data = dict(data, models=tuple(data["models"]))
        return cls(**data)

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_file(cls, path) -> "CampaignSpec":
        return cls.from_json(Path(path).read_text())

    def to_file(self, path) -> None:
        Path(path).write_text(self.to_json())


def spec_digest(spec: CampaignSpec) -> str:
    """The campaign's identity: sha256 of the canonical spec JSON."""
    blob = json.dumps(spec.as_dict(), separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()
