"""repro — reproduction of "The Impact of Communication Models on
Routing-Algorithm Convergence" (Jaggard, Ramachandran, Wright; ICDCS 2009).

Public API highlights
---------------------

* :mod:`repro.core` — the Stable Paths Problem, canonical gadgets,
  stable-solution solvers, dispute-wheel analysis.
* :mod:`repro.models` — the 24-model communication taxonomy.
* :mod:`repro.engine` — the routing algorithm of Def. 2.3, fair
  schedulers, convergence detection, and a bounded model checker for
  oscillation reachability.
* :mod:`repro.realization` — realization relations between models,
  the paper's foundational facts, the transitivity closure that
  regenerates Figures 3 and 4, and constructive sequence transforms.
* :mod:`repro.analysis` — experiment drivers and reporting.
* :mod:`repro.campaign` — resumable sharded survey campaigns over
  random instance populations.
* :mod:`repro.faults` — deterministic, seeded fault injection
  (chaos testing of the storage/campaign/telemetry layers) and the
  ``repro doctor`` integrity checks in :mod:`repro.doctor`.

The names in ``__all__`` are the **stable public API**: entry points
take a :class:`RunConfig` (engine, reduction, cache, workers, bounds,
telemetry) instead of ad-hoc keyword arguments, and
``tests/test_api_surface.py`` pins this surface so accidental drift
fails CI.  See ``docs/api.md``.

The package and its subpackages are lazy facades (see
:mod:`repro._lazy`): a re-exported name imports its defining module on
first attribute access, so ``import repro`` loads almost nothing.
"""

from ._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".": [
            "analysis",
            "campaign",
            "core",
            "engine",
            "faults",
            "models",
            "realization",
            "serve",
        ],
        ".analysis": ["matrix_certification", "survey_convergence"],
        ".campaign": ["Campaign", "CampaignHandle", "CampaignSpec"],
        ".config": ["RunConfig"],
        ".faults": ["FaultPlan"],
        ".core": ["SPPBuilder", "SPPInstance", "instances as canonical"],
        ".core.generators": ["instance_family", "random_instance"],
        ".engine": ["can_oscillate", "simulate"],
        ".engine.parallel": ["run_explorations", "run_simulations"],
        ".models": ["ALL_MODELS", "CommunicationModel", "model"],
    },
)

__version__ = "2.0.0"

__all__ = [
    "ALL_MODELS",
    "Campaign",
    "CampaignHandle",
    "CampaignSpec",
    "CommunicationModel",
    "FaultPlan",
    "RunConfig",
    "SPPBuilder",
    "SPPInstance",
    "analysis",
    "campaign",
    "canonical",
    "can_oscillate",
    "core",
    "engine",
    "faults",
    "instance_family",
    "matrix_certification",
    "model",
    "models",
    "random_instance",
    "realization",
    "run_explorations",
    "run_simulations",
    "serve",
    "simulate",
    "survey_convergence",
]
