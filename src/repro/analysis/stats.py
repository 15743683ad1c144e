"""Convergence-rate statistics across models and instance families.

The paper's conclusions predict a qualitative ordering: polling models
(count A) converge on instances where message-passing models may not,
and the queueing models admit every behaviour any model admits.  The
survey here quantifies that shape on random instance families
(experiment E10 in DESIGN.md): for each (instance, model) pair it runs
many independent fair random executions and reports how often they
reach a fixed point within the step budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import mean
from typing import Iterable, Sequence

from ..config import RunConfig
from ..core.spp import SPPInstance
from ..models.taxonomy import CommunicationModel

__all__ = [
    "ModelStats",
    "ConvergenceSurvey",
    "survey_convergence",
    "wilson_interval",
]


def wilson_interval(
    successes: int, trials: int, z: float = 1.96
) -> "tuple[float, float]":
    """Wilson score interval for a binomial proportion.

    The campaign reports quote it instead of the normal approximation
    because survey rates routinely sit at 0% or 100% (every seed of a
    dispute-wheel-free instance converges), where the Wald interval
    collapses to a width of zero.  ``trials == 0`` yields the vacuous
    ``(0.0, 1.0)``.
    """
    if trials < 0 or successes < 0 or successes > trials:
        raise ValueError("need 0 <= successes <= trials")
    if trials == 0:
        return (0.0, 1.0)
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = p + z * z / (2 * trials)
    spread = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4 * trials * trials))
    return (
        max(0.0, (center - spread) / denom),
        min(1.0, (center + spread) / denom),
    )


@dataclass
class ModelStats:
    """Aggregated outcomes of many runs under one model."""

    model_name: str
    runs: int = 0
    converged: int = 0
    steps_to_converge: list = field(default_factory=list)

    @property
    def convergence_rate(self) -> float:
        return self.converged / self.runs if self.runs else 0.0

    @property
    def mean_steps(self) -> float:
        """Mean steps to fixed point among converged runs."""
        return mean(self.steps_to_converge) if self.steps_to_converge else 0.0

    def steps_percentile(self, fraction: float) -> float:
        """Steps-to-convergence percentile (0 < fraction ≤ 1).

        Nearest-rank over the converged runs; 0.0 when none converged.
        Tail latency (p95) separates deployment styles more sharply
        than the mean — polling's worst cases stay close to its median,
        while queue-backlog models exhibit long tails.
        """
        if not 0 < fraction <= 1:
            raise ValueError("fraction must be in (0, 1]")
        if not self.steps_to_converge:
            return 0.0
        ordered = sorted(self.steps_to_converge)
        rank = max(1, math.ceil(fraction * len(ordered)))
        return float(ordered[rank - 1])

    def rate_ci(self, z: float = 1.96) -> "tuple[float, float]":
        """Wilson confidence interval on the convergence rate."""
        return wilson_interval(self.converged, self.runs, z=z)

    def record(self, converged: bool, steps: int) -> None:
        self.runs += 1
        if converged:
            self.converged += 1
            self.steps_to_converge.append(steps)


@dataclass
class ConvergenceSurvey:
    """Results of a full sweep: per-model statistics plus metadata."""

    per_model: dict
    instances: int
    seeds_per_instance: int
    max_steps: int

    def rate(self, model_name: str) -> float:
        return self.per_model[model_name].convergence_rate

    def ordered_by_rate(self) -> list:
        return sorted(
            self.per_model.values(),
            key=lambda stats: (-stats.convergence_rate, stats.model_name),
        )

    def as_dict(self) -> dict:
        """Machine-readable form (``repro experiments --json``)."""
        return {
            "instances": self.instances,
            "seeds_per_instance": self.seeds_per_instance,
            "max_steps": self.max_steps,
            "per_model": {
                stats.model_name: {
                    "runs": stats.runs,
                    "converged": stats.converged,
                    "rate": round(stats.convergence_rate, 6),
                    "mean_steps": round(stats.mean_steps, 3),
                    "p95_steps": stats.steps_percentile(0.95),
                }
                for stats in self.ordered_by_rate()
            },
        }

    def format_table(self) -> str:
        lines = ["model | runs | converged | rate   | mean steps | p95 steps"]
        lines.append("-" * 64)
        for stats in self.ordered_by_rate():
            lines.append(
                f"{stats.model_name:<5} | {stats.runs:>4} | "
                f"{stats.converged:>9} | {stats.convergence_rate:6.2%} | "
                f"{stats.mean_steps:8.1f}   | {stats.steps_percentile(0.95):7.0f}"
            )
        return "\n".join(lines)


def survey_convergence(
    instances: Sequence[SPPInstance],
    models: Iterable[CommunicationModel],
    *,
    seeds_per_instance: int = 5,
    drop_prob: float = 0.2,
    config: "RunConfig | None" = None,
) -> ConvergenceSurvey:
    """Run the sweep: every instance × model × seed.

    Each (instance, model) pair becomes one :class:`SimulationTask`
    carrying its explicit seed range, so the survey is deterministic
    for every worker count: outcomes depend only on the seeds, and the
    fan-out merges results in task order.  ``config`` carries the
    fan-out width (``workers=None`` = one per core) and the step budget
    (``step_bound``, default 600); a call without ``config`` runs
    in-process.
    """
    from ..engine.parallel import SimulationTask, run_simulations

    if config is None:
        config = RunConfig(workers=1)
    models = tuple(models)
    per_model = {m.name: ModelStats(model_name=m.name) for m in models}
    tasks = [
        SimulationTask.from_config(
            instance,
            model.name,
            config,
            seeds=tuple(range(seeds_per_instance)),
            drop_prob=drop_prob,
        )
        for instance in instances
        for model in models
    ]
    for (_, model_name), outcomes in run_simulations(tasks, config=config):
        for converged, steps in outcomes:
            per_model[model_name].record(converged, steps)
    return ConvergenceSurvey(
        per_model=per_model,
        instances=len(instances),
        seeds_per_instance=seeds_per_instance,
        max_steps=config.max_steps,
    )
