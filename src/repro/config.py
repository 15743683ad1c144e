"""``repro.config`` — the unified :class:`RunConfig` carried by entry points.

Before this module every search entry point (``can_oscillate``,
``run_explorations``, ``run_simulations``, the ``analysis.experiments``
drivers, the CLI) threaded the same five or six tuning knobs as ad-hoc
keyword arguments.  :class:`RunConfig` replaces that with one frozen,
picklable value object:

* ``engine`` — execution core (``"packed"``, the default, or
  ``"reference"``, the oracle); see :data:`ENGINES`.
* ``reduction`` — partial-order reducer (``"ample"`` or ``"none"``).
* ``cache`` / ``cache_dir`` — the content-addressed verdict cache:
  ``cache`` accepts anything :func:`repro.engine.cache.as_cache` does
  (``None`` off, ``True`` default directory, a path, a
  ``VerdictCache``) and wins over ``cache_dir``, which names a
  directory; ``cache=False`` forces caching off.
* ``workers`` — fan-out width; ``None`` means one per core (see
  :func:`repro.engine.parallel.default_workers`, which also honours
  the ``REPRO_WORKERS`` environment override).
* ``queue_bound`` — channel budget of the bounded search.
* ``step_bound`` — the run's budget: ``max_states`` for explorations,
  ``max_steps`` for simulations; ``None`` uses each consumer's default.

``config=`` is the only way to pass these, and the entry points take
everything after their data inputs by keyword only.
This module sits at the bottom of the layering: it imports nothing
from the rest of the package, so every layer may depend on it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

__all__ = [
    "DEFAULT_ENGINE",
    "DEFAULT_MAX_STATES",
    "DEFAULT_MAX_STEPS",
    "ENGINES",
    "RunConfig",
    "validate_engine",
]

#: The execution cores: ``"packed"`` searches single-integer state
#: words with orbit quotienting; ``"reference"`` is the direct
#: Def. 2.1–2.3 implementation every fast path is pinned against.
ENGINES = ("packed", "reference")

#: The engine every entry point uses unless told otherwise.
DEFAULT_ENGINE = "packed"

#: Exploration state budget when ``step_bound`` is left ``None``.
DEFAULT_MAX_STATES = 200_000

#: Simulation step budget when ``step_bound`` is left ``None``.
DEFAULT_MAX_STEPS = 600


def validate_engine(engine) -> str:
    """Return ``engine`` unchanged if it is one of :data:`ENGINES`."""
    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of: {', '.join(ENGINES)}"
        )
    return engine


@dataclass(frozen=True)
class RunConfig:
    """One immutable bundle of search/fan-out tuning knobs.

    Frozen and picklable, so a single config can be validated once and
    then shipped unchanged to worker processes and campaign shards.
    """

    engine: str = DEFAULT_ENGINE
    reduction: str = "ample"
    cache: object = None
    cache_dir: "str | None" = None
    workers: "int | None" = None
    queue_bound: int = 3
    step_bound: "int | None" = None

    def __post_init__(self) -> None:
        validate_engine(self.engine)
        if self.reduction not in ("ample", "none"):
            raise ValueError(f"unknown reduction {self.reduction!r}")
        if self.queue_bound < 1:
            raise ValueError("queue_bound must be at least 1")
        if self.step_bound is not None and self.step_bound < 1:
            raise ValueError("step_bound must be at least 1 (or None)")
        if self.workers is not None and self.workers < 1:
            raise ValueError("workers must be at least 1 (or None for auto)")

    # -- derived views --------------------------------------------------
    @property
    def max_states(self) -> int:
        """The exploration state budget this config implies."""
        return DEFAULT_MAX_STATES if self.step_bound is None else self.step_bound

    @property
    def max_steps(self) -> int:
        """The simulation step budget this config implies."""
        return DEFAULT_MAX_STEPS if self.step_bound is None else self.step_bound

    def resolved_cache(self):
        """The ``cache`` argument to hand the explorer (or ``None``).

        ``cache`` wins when set (``False`` forces caching off even if
        ``cache_dir`` names a directory); otherwise ``cache_dir``.
        """
        if self.cache is False:
            return None
        if self.cache is not None:
            return self.cache
        return self.cache_dir

    def resolved_workers(self) -> int:
        """The concrete fan-out width this config implies.

        ``workers`` when set; otherwise one snapshot of
        :func:`repro.engine.parallel.default_workers` (which honours
        ``$REPRO_WORKERS``).  Drivers that execute many fan-outs — the
        campaign runner, ``campaign join`` — call this *once* and pass
        the integer down, so an environment change mid-run never
        reshapes later shards.  (Imported lazily: this module stays at
        the bottom of the layering.)
        """
        if self.workers is not None:
            return self.workers
        from .engine.parallel import default_workers

        return default_workers()

    def replace(self, **changes) -> "RunConfig":
        """A copy with ``changes`` applied (fields re-validated)."""
        return dataclasses.replace(self, **changes)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """The inverse of :meth:`as_dict` (wire/JSON form to config).

        Unknown keys are rejected rather than dropped so a typo in a
        request or spec fails loudly instead of silently running with
        defaults.  Field values are re-validated by the constructor.
        """
        if not isinstance(data, dict):
            raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
        known = {field.name for field in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown config field(s): {', '.join(unknown)}")
        return cls(**data)

    def as_dict(self) -> dict:
        """JSON-serializable form (campaign specs, telemetry metadata)."""
        cache = self.cache
        if cache is not None and not isinstance(cache, (bool, str)):
            cache = str(getattr(cache, "root", cache))
        return {
            "engine": self.engine,
            "reduction": self.reduction,
            "cache": cache,
            "cache_dir": self.cache_dir,
            "workers": self.workers,
            "queue_bound": self.queue_bound,
            "step_bound": self.step_bound,
        }

