"""Experiment drivers — one per table/figure of the paper (see DESIGN.md).

Each ``experiment_*`` function reproduces one artifact and returns a
result object whose fields the benchmarks assert on and whose
``summary`` string the CLI prints.  The scripted activation sequences
are the paper's own (Appendix A); expected values are transcribed
verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..config import RunConfig
from ..core import instances as canonical
from ..core.dispute import has_dispute_wheel
from ..core.generators import instance_family
from ..core.solutions import enumerate_stable_solutions
from ..engine.activation import INFINITY, ActivationEntry
from ..engine.convergence import find_oscillation_evidence
from ..engine.execution import Execution
from ..engine.explorer import can_oscillate
from ..models.taxonomy import model
from ..realization.closure import derive_matrix
from ..realization.paper_tables import (
    FIGURE3_COLUMNS,
    FIGURE4_COLUMNS,
    compare_with_derived,
)
from ..realization.search import RealizationSearch
from . import reporting
from .stats import survey_convergence
from .traces import matches_paper_trace

__all__ = [
    "MATRIX_CERTIFIED_SAFE",
    "MatrixExperiment",
    "OscillationExperiment",
    "TraceRealizationExperiment",
    "matrix_certification",
    "experiment_figure3",
    "experiment_figure4",
    "experiment_disagree",
    "experiment_fig6",
    "experiment_fig7",
    "experiment_fig8",
    "experiment_fig9",
    "experiment_multinode",
    "experiment_dispute_wheels",
    "experiment_convergence_rates",
    "experiment_message_overhead",
    "suite_as_dict",
    "OverheadExperiment",
    "FIG6_REO_SCHEDULE",
    "FIG6_REO_EXPECTED",
    "FIG7_REO_SCHEDULE",
    "FIG7_REO_EXPECTED",
    "FIG8_REA_SCHEDULE",
    "FIG8_REA_EXPECTED",
    "FIG9_REA_SCHEDULE",
    "FIG9_REA_EXPECTED",
]


# ----------------------------------------------------------------------
# E1/E2 — Figures 3 and 4.
# ----------------------------------------------------------------------
@dataclass
class MatrixExperiment:
    """Derived matrix compared against a published figure."""

    figure: str
    comparisons: list
    matrix_text: str
    #: Optional explorer cross-check: model name → ExplorationResult on
    #: DISAGREE (see :func:`matrix_certification`).  ``None`` when the
    #: experiment ran without certification.
    certification: "dict | None" = None

    @property
    def matches(self) -> int:
        return sum(1 for c in self.comparisons if c.verdict == "match")

    @property
    def tighter(self) -> int:
        return sum(1 for c in self.comparisons if c.verdict == "tighter")

    @property
    def problems(self) -> list:
        return [
            c
            for c in self.comparisons
            if c.verdict in ("looser", "incomparable", "contradiction")
        ]

    @property
    def summary(self) -> str:
        text = (
            f"{self.figure}: {self.matches} entries match the paper, "
            f"{self.tighter} derived strictly tighter, "
            f"{len(self.problems)} problems\n"
            + reporting.render_comparison_summary(self.comparisons)
        )
        if self.certification is not None:
            oscillating = sorted(
                name
                for name, result in self.certification.items()
                if result.oscillates
            )
            safe = sorted(
                name
                for name, result in self.certification.items()
                if not result.oscillates and result.complete
            )
            text += (
                f"\ncertified on DISAGREE: {len(oscillating)} models "
                f"oscillate, {len(safe)} proved safe "
                f"(safe: {', '.join(safe)})\n"
                + reporting.render_certification_table(self.certification)
            )
        return text

    def as_dict(self) -> dict:
        """Machine-readable form (``repro experiments --json``)."""
        return {
            "figure": self.figure,
            "matches": self.matches,
            "tighter": self.tighter,
            "problems": len(self.problems),
            "certification": (
                None
                if self.certification is None
                else {
                    name: result.as_dict()
                    for name, result in sorted(self.certification.items())
                }
            ),
        }


#: The models that provably cannot oscillate on DISAGREE — the five of
#: Thm. 3.8 plus the unreliable twins the exhaustive search also proves
#: safe (dropping messages does not rescue an oscillation here).
MATRIX_CERTIFIED_SAFE = frozenset(
    ("REO", "REF", "R1A", "RMA", "REA", "UEO", "UEF", "U1A", "UMA", "UEA")
)


def matrix_certification(
    *,
    instance=None,
    config: "RunConfig | None" = None,
) -> dict:
    """Explorer cross-check of the derived matrices on DISAGREE.

    Runs the bounded model checker for **all 24 models** on the paper's
    central counterexample and returns ``{model name: ExplorationResult}``.
    The expected split (:data:`MATRIX_CERTIFIED_SAFE` versus the rest)
    is exactly what the realization orderings behind Figures 3/4
    predict, so the fan-out certifies the rule-derived matrices against
    direct search.  Verdicts are identical for every worker count.

    ``config`` (a :class:`repro.RunConfig`) carries the worker count,
    bounds, execution core, partial-order reducer, and shared verdict
    cache; without one the search runs in-process.  ``instance``
    substitutes another gadget for DISAGREE (the perf benchmark
    certifies Fig. 7, whose state space actually stresses the reducer).
    """
    from ..engine.parallel import ExplorationTask, run_explorations
    from ..models.taxonomy import ALL_MODELS

    if config is None:
        config = RunConfig(workers=1)
    if instance is None:
        instance = canonical.disagree()
    tasks = [
        ExplorationTask.from_config(instance, m.name, config, key=(m.name,))
        for m in ALL_MODELS
    ]
    return {
        key[0]: result
        for key, result in run_explorations(tasks, config=config)
    }


def experiment_figure3(*, config: "RunConfig | None" = None) -> MatrixExperiment:
    """E1: regenerate Figure 3 (realization by reliable models).

    With ``config`` set, additionally runs :func:`matrix_certification`
    under it and attaches the verdicts.
    """
    matrix = derive_matrix()
    return MatrixExperiment(
        figure="Figure 3",
        comparisons=compare_with_derived(matrix, columns=FIGURE3_COLUMNS),
        matrix_text=reporting.render_figure3(matrix),
        certification=(
            None if config is None else matrix_certification(config=config)
        ),
    )


def experiment_figure4(*, config: "RunConfig | None" = None) -> MatrixExperiment:
    """E2: regenerate Figure 4 (realization by unreliable models).

    Certifies like :func:`experiment_figure3` when ``config`` is set.
    """
    matrix = derive_matrix()
    return MatrixExperiment(
        figure="Figure 4",
        comparisons=compare_with_derived(matrix, columns=FIGURE4_COLUMNS),
        matrix_text=reporting.render_figure4(matrix),
        certification=(
            None if config is None else matrix_certification(config=config)
        ),
    )


# ----------------------------------------------------------------------
# E3 — DISAGREE (Fig. 5 / Ex. A.1).
# ----------------------------------------------------------------------
@dataclass
class OscillationExperiment:
    """Explorer verdicts for one instance across models."""

    instance_name: str
    results: dict  # model name → ExplorationResult
    expected_oscillating: frozenset
    expected_safe: frozenset

    @property
    def correct(self) -> bool:
        for name in self.expected_oscillating:
            result = self.results[name]
            if not result.oscillates:
                return False
        for name in self.expected_safe:
            result = self.results[name]
            if result.oscillates or not result.complete:
                return False
        return True

    @property
    def summary(self) -> str:
        verdict = "REPRODUCED" if self.correct else "MISMATCH"
        return (
            f"{self.instance_name}: {verdict}\n"
            + reporting.render_oscillation_table(self.results)
        )

    def as_dict(self) -> dict:
        return {
            "instance": self.instance_name,
            "correct": self.correct,
            "results": {
                name: result.as_dict()
                for name, result in sorted(self.results.items())
            },
        }


#: The models Ex. A.1 proves cannot oscillate on DISAGREE.
DISAGREE_SAFE_MODELS = ("REO", "REF", "R1A", "RMA", "REA")
#: A representative set that can (R1O plus everything realizing it).
DISAGREE_OSCILLATING_MODELS = (
    "R1O", "RMO", "R1S", "RMS", "RES", "R1F", "RMF",
    "U1O", "UMO", "U1S", "UMS",
)


def experiment_disagree(
    *, config: "RunConfig | None" = None
) -> OscillationExperiment:
    """E3: DISAGREE oscillates in R1O & co. but never in the five
    models of Thm. 3.8."""
    from ..engine.parallel import ExplorationTask, run_explorations

    if config is None:
        config = RunConfig(workers=1)
    instance = canonical.disagree()
    names = DISAGREE_OSCILLATING_MODELS + DISAGREE_SAFE_MODELS
    tasks = [
        ExplorationTask.from_config(instance, name, config, key=(name,))
        for name in names
    ]
    results = {
        key[0]: result
        for key, result in run_explorations(tasks, config=config)
    }
    return OscillationExperiment(
        instance_name=instance.name,
        results=results,
        expected_oscillating=frozenset(DISAGREE_OSCILLATING_MODELS),
        expected_safe=frozenset(DISAGREE_SAFE_MODELS),
    )


# ----------------------------------------------------------------------
# E4 — the Fig. 6 gadget (Ex. A.2).
# ----------------------------------------------------------------------
#: The scripted REO prefix of Ex. A.2 (t = 1…13) and its path choices.
FIG6_REO_SCHEDULE = ("d", "x", "a", "u", "v", "y", "a", "u", "v", "z", "a", "v", "u")
FIG6_REO_EXPECTED = (
    "d", "xd", "axd", "uaxd", "vuaxd", "yd", "ayd", "ε", "vayd",
    "zd", "azd", "vazd", "uazd",
)


@dataclass
class Fig6Experiment:
    """Scripted REO oscillation plus polling-impossibility verdicts."""

    trace_matches: bool
    recurrence: "tuple | None"
    polling_results: dict = field(default_factory=dict)

    @property
    def oscillates_in_reo(self) -> bool:
        return self.trace_matches and self.recurrence is not None

    @property
    def polling_safe(self) -> bool:
        return all(
            not result.oscillates and result.complete
            for result in self.polling_results.values()
        )

    @property
    def summary(self) -> str:
        lines = [
            f"Fig. 6 REO scripted trace matches paper: {self.trace_matches}",
            f"full-state recurrence (oscillation) at: {self.recurrence}",
        ]
        if self.polling_results:
            lines.append(reporting.render_oscillation_table(self.polling_results))
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "trace_matches": self.trace_matches,
            "oscillates_in_reo": self.oscillates_in_reo,
            "recurrence": (
                None if self.recurrence is None else list(self.recurrence)
            ),
            "polling_safe": self.polling_safe,
            "polling_results": {
                name: result.as_dict()
                for name, result in sorted(self.polling_results.items())
            },
        }


def run_fig6_reo_trace(extra_rounds: int = 8) -> "tuple":
    """Run the Ex. A.2 REO schedule and extend it with the fair cycle.

    Returns ``(trace, matched, recurrence)`` where ``matched`` checks
    the scripted prefix against the paper's table and ``recurrence`` is
    evidence of oscillation (a repeated full network state) under the
    fair extension [v, u, a, d, x, y, z] repeated.
    """
    instance = canonical.fig6_gadget()
    execution = Execution(instance)
    execution.run_nodes(FIG6_REO_SCHEDULE, kind="one-each")
    matched = matches_paper_trace(execution.trace, FIG6_REO_EXPECTED)
    for _ in range(extra_rounds):
        execution.run_nodes(("v", "u", "a", "d", "x", "y", "z"), kind="one-each")
    recurrence = find_oscillation_evidence(execution.trace)
    return execution.trace, matched, recurrence


def experiment_fig6(
    *,
    polling_models: "tuple | None" = ("REA",),
    queue_bound: int = 2,
    config: "RunConfig | None" = None,
) -> Fig6Experiment:
    """E4: Fig. 6 oscillates in REO but not in the polling models.

    ``polling_models`` defaults to REA only (seconds); pass
    ``("R1A", "RMA", "REA")`` for the full — minutes-long — Thm. 3.9
    verification, as the benchmark does.  The polling explorations are
    independent and fan out across ``config.workers`` processes.
    ``queue_bound`` and the 2M-state budget are experiment-defined
    bounds (Thm. 3.9's search needs exactly these), so they override
    whatever ``config`` carries.
    """
    from ..engine.parallel import ExplorationTask, run_explorations

    if config is None:
        config = RunConfig(workers=1)
    search = config.replace(queue_bound=queue_bound, step_bound=2_000_000)
    _, matched, recurrence = run_fig6_reo_trace()
    instance = canonical.fig6_gadget()
    tasks = [
        ExplorationTask.from_config(instance, name, search, key=(name,))
        for name in polling_models or ()
    ]
    results = {
        key[0]: result
        for key, result in run_explorations(tasks, config=config)
    }
    return Fig6Experiment(
        trace_matches=matched,
        recurrence=recurrence,
        polling_results=results,
    )


# ----------------------------------------------------------------------
# E5/E6/E7 — the trace-realization gadgets (Figs. 7, 8, 9).
# ----------------------------------------------------------------------
FIG7_REO_SCHEDULE = ("d", "b", "u", "v", "a", "u", "v", "s", "s", "s")
FIG7_REO_EXPECTED = (
    "d", "bd", "ubd", "vbd", "ad", "uad", "vad", "subd", "suad", "suad",
)

FIG8_REA_SCHEDULE = ("d", "a", "u", "b", "u", "s")
FIG8_REA_EXPECTED = ("d", "ad", "uad", "bd", "ubd", "subd")

FIG9_REA_SCHEDULE = ("d", "b", "c", "x", "s", "a", "c", "s")
FIG9_REA_EXPECTED = ("d", "bd", "cbd", "xd", "scbd", "ad", "cad", "sxd")


@dataclass
class TraceRealizationExperiment:
    """A scripted source trace and the verdicts of target-model searches."""

    figure: str
    trace_matches: bool
    target_model: str
    impossible_mode: str
    impossible_proved: bool
    search_states: int
    possible_mode: "str | None" = None
    possible_schedule: "tuple | None" = None

    @property
    def correct(self) -> bool:
        ok = self.trace_matches and self.impossible_proved
        if self.possible_mode is not None:
            ok = ok and self.possible_schedule is not None
        return ok

    @property
    def summary(self) -> str:
        lines = [
            f"{self.figure}: scripted trace matches paper: {self.trace_matches}",
            f"  {self.target_model} cannot realize it "
            f"[{self.impossible_mode}]: proved={self.impossible_proved} "
            f"(visited {self.search_states} search states)",
        ]
        if self.possible_mode is not None:
            found = self.possible_schedule is not None
            lines.append(
                f"  but CAN realize it [{self.possible_mode}]: found={found}"
            )
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "figure": self.figure,
            "trace_matches": self.trace_matches,
            "target_model": self.target_model,
            "impossible_mode": self.impossible_mode,
            "impossible_proved": self.impossible_proved,
            "search_states": self.search_states,
            "possible_mode": self.possible_mode,
            "possible_found": (
                None
                if self.possible_mode is None
                else self.possible_schedule is not None
            ),
            "correct": self.correct,
        }


def _scripted_trace(instance, schedule, kind: str):
    execution = Execution(instance)
    execution.run_nodes(schedule, kind=kind)
    return execution.trace


def experiment_fig7(queue_bound: int = 4) -> TraceRealizationExperiment:
    """E5 (Ex. A.3): the Fig. 7 REO execution has no exact R1O realization."""
    instance = canonical.fig7_gadget()
    trace = _scripted_trace(instance, FIG7_REO_SCHEDULE, "one-each")
    matched = matches_paper_trace(trace, FIG7_REO_EXPECTED)
    search = RealizationSearch(instance, model("R1O"), queue_bound=queue_bound)
    outcome = search.find_exact(trace.pi_sequence)
    return TraceRealizationExperiment(
        figure="Figure 7 (Ex. A.3)",
        trace_matches=matched,
        target_model="R1O",
        impossible_mode="exact",
        impossible_proved=outcome.proves_impossible,
        search_states=outcome.states_visited,
    )


def experiment_fig8(queue_bound: int = 4) -> TraceRealizationExperiment:
    """E6 (Ex. A.4): the Fig. 8 REA execution cannot be realized with
    repetition in R1O — but embeds as a subsequence."""
    instance = canonical.fig8_gadget()
    trace = _scripted_trace(instance, FIG8_REA_SCHEDULE, "poll")
    matched = matches_paper_trace(trace, FIG8_REA_EXPECTED)
    search = RealizationSearch(instance, model("R1O"), queue_bound=queue_bound)
    impossible = search.find_with_repetition(trace.pi_sequence)
    possible = search.find_subsequence(trace.pi_sequence, max_steps=16)
    return TraceRealizationExperiment(
        figure="Figure 8 (Ex. A.4)",
        trace_matches=matched,
        target_model="R1O",
        impossible_mode="repetition",
        impossible_proved=impossible.proves_impossible,
        search_states=impossible.states_visited,
        possible_mode="subsequence",
        possible_schedule=possible.schedule,
    )


def experiment_fig9(queue_bound: int = 4) -> TraceRealizationExperiment:
    """E7 (Ex. A.5): the Fig. 9 REA execution has no exact R1S realization."""
    instance = canonical.fig9_gadget()
    trace = _scripted_trace(instance, FIG9_REA_SCHEDULE, "poll")
    matched = matches_paper_trace(trace, FIG9_REA_EXPECTED)
    search = RealizationSearch(instance, model("R1S"), queue_bound=queue_bound)
    outcome = search.find_exact(trace.pi_sequence)
    return TraceRealizationExperiment(
        figure="Figure 9 (Ex. A.5)",
        trace_matches=matched,
        target_model="R1S",
        impossible_mode="exact",
        impossible_proved=outcome.proves_impossible,
        search_states=outcome.states_visited,
    )


# ----------------------------------------------------------------------
# E8 — multi-node activation (Ex. A.6).
# ----------------------------------------------------------------------
@dataclass
class MultiNodeExperiment:
    """Ex. A.6: simultaneous polling can oscillate on DISAGREE."""

    recurrence: "tuple | None"
    assignments_seen: int

    @property
    def oscillates(self) -> bool:
        return self.recurrence is not None and self.assignments_seen >= 2

    @property
    def summary(self) -> str:
        return (
            "Ex. A.6 multi-node R1A on DISAGREE: "
            f"recurrence={self.recurrence}, distinct assignments="
            f"{self.assignments_seen} → oscillates={self.oscillates}"
        )

    def as_dict(self) -> dict:
        return {
            "recurrence": (
                None if self.recurrence is None else list(self.recurrence)
            ),
            "assignments_seen": self.assignments_seen,
            "oscillates": self.oscillates,
        }


def experiment_multinode(rounds: int = 6) -> MultiNodeExperiment:
    """E8: run the Ex. A.6 schedule — x and y polling in lockstep."""
    instance = canonical.disagree()
    execution = Execution(instance)

    def entry(nodes_channels) -> ActivationEntry:
        channels = [channel for _, channel in nodes_channels]
        return ActivationEntry(
            nodes=[node for node, _ in nodes_channels],
            channels=channels,
            reads={channel: INFINITY for channel in channels},
        )

    execution.step(entry([("d", ("x", "d"))]))
    cycle = [
        entry([("x", ("d", "x")), ("y", ("d", "y"))]),
        entry([("x", ("y", "x")), ("y", ("x", "y"))]),
        entry([("d", ("x", "d"))]),
        entry([("d", ("y", "d"))]),
    ]
    for _ in range(rounds):
        for step in cycle:
            execution.step(step)
    recurrence = find_oscillation_evidence(execution.trace)
    distinct = len(set(execution.trace.pi_sequence))
    return MultiNodeExperiment(recurrence=recurrence, assignments_seen=distinct)


# ----------------------------------------------------------------------
# E11 — dispute wheels and guaranteed convergence.
# ----------------------------------------------------------------------
@dataclass
class DisputeWheelExperiment:
    """Wheel presence versus solvability/oscillation for the gadgets."""

    rows: list  # (name, has_wheel, n_solutions, oscillates_in_RMS)

    @property
    def summary(self) -> str:
        lines = ["instance        | wheel | stable solutions | RMS oscillation"]
        lines.append("-" * 62)
        for name, wheel, solutions, oscillates in self.rows:
            lines.append(
                f"{name:<15} | {str(wheel):<5} | {solutions:>16} | {oscillates}"
            )
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "rows": [
                {
                    "instance": name,
                    "dispute_wheel": wheel,
                    "stable_solutions": solutions,
                    "oscillates_in_rms": oscillates,
                }
                for name, wheel, solutions, oscillates in self.rows
            ]
        }


def experiment_dispute_wheels() -> DisputeWheelExperiment:
    """E11: no dispute wheel ⇒ unique solution and no oscillation anywhere."""
    rows = []
    for factory in (
        canonical.disagree,
        canonical.bad_gadget,
        canonical.good_gadget,
        lambda: canonical.shortest_paths_ring(3),
    ):
        instance = factory()
        wheel = has_dispute_wheel(instance)
        solutions = len(list(enumerate_stable_solutions(instance)))
        oscillates = can_oscillate(
            instance, model("RMS"), config=RunConfig(queue_bound=2)
        ).oscillates
        rows.append((instance.name, wheel, solutions, oscillates))
    return DisputeWheelExperiment(rows=rows)


# ----------------------------------------------------------------------
# E10 — convergence-rate survey.
# ----------------------------------------------------------------------
def experiment_convergence_rates(
    *,
    n_instances: int = 6,
    seeds_per_instance: int = 3,
    model_names: tuple = ("R1O", "REO", "RMS", "REA", "U1O", "UMS"),
    config: "RunConfig | None" = None,
):
    """E10: convergence frequency per model on random policy instances.

    The historical 400-step budget applies unless ``config.step_bound``
    says otherwise.
    """
    if config is None:
        config = RunConfig(workers=1)
    if config.step_bound is None:
        config = config.replace(step_bound=400)
    instances = list(
        instance_family(n_instances, base_seed=7, n_nodes=4, policy="random")
    )
    return survey_convergence(
        instances,
        [model(name) for name in model_names],
        seeds_per_instance=seeds_per_instance,
        config=config,
    )


# ----------------------------------------------------------------------
# E13 — message overhead per model (extension; Sec. 4 trade-offs).
# ----------------------------------------------------------------------
@dataclass
class OverheadExperiment:
    """Per-model message accounting on one instance until fixed point."""

    instance_name: str
    rows: dict  # model name → (converged, steps, ExecutionMetrics)

    @property
    def summary(self) -> str:
        lines = [
            f"{self.instance_name}: message overhead to convergence",
            "model | steps | announcements | processed | dropped | msg/change",
        ]
        lines.append("-" * 68)
        for name in sorted(self.rows):
            converged, steps, metrics = self.rows[name]
            lines.append(
                f"{name:<5} | {steps:>5} | {metrics.announcements:>13} | "
                f"{metrics.messages_processed:>9} | "
                f"{metrics.messages_dropped:>7} | "
                f"{metrics.announcements_per_change:>10.2f}"
            )
        return "\n".join(lines)

    def as_dict(self) -> dict:
        return {
            "instance": self.instance_name,
            "rows": {
                name: {
                    "converged": converged,
                    "steps": steps,
                    "metrics": metrics.as_dict(),
                }
                for name, (converged, steps, metrics) in sorted(
                    self.rows.items()
                )
            },
        }


def experiment_message_overhead(
    instance=None,
    model_names: tuple = ("R1O", "REO", "RMS", "REA", "UMS"),
    seed: int = 0,
    max_steps: int = 4000,
    drop_prob: float = 0.2,
) -> OverheadExperiment:
    """E13: protocol chattiness across deployment styles.

    Runs each model to a fixed point on the same (convergent) instance
    with the same scheduler seed and tallies message counters — the
    operational face of the Sec. 4 wait-time/announcement trade-off.
    """
    from ..engine.convergence import is_fixed_point
    from ..engine.metrics import measure
    from ..engine.schedulers import RandomScheduler

    instance = instance or canonical.fig7_gadget()
    rows = {}
    for name in model_names:
        execution = Execution(instance)
        scheduler = RandomScheduler(
            instance, model(name), seed=seed, drop_prob=drop_prob
        )
        converged = False
        steps = 0
        for steps in range(1, max_steps + 1):
            execution.step(scheduler.next_entry(execution.state))
            if is_fixed_point(instance, execution.state):
                converged = True
                break
        rows[name] = (converged, steps, measure(execution.trace))
    return OverheadExperiment(instance_name=instance.name, rows=rows)


# ----------------------------------------------------------------------
# Machine-readable suite (``repro experiments --json``).
# ----------------------------------------------------------------------
def suite_as_dict(*, full: bool = False, config: "RunConfig | None" = None) -> dict:
    """Run the experiment suite and return one JSON-serializable dict.

    Mirrors the CLI's text path experiment for experiment (E1–E13), but
    every result is reported through its ``as_dict()`` instead of its
    ``summary`` string, so downstream tooling never scrapes tables.
    """
    from ..engine.multinode import can_oscillate_multinode
    from ..models.taxonomy import model as model_by_name

    if config is None:
        config = RunConfig(workers=1)
    polling = ("R1A", "RMA", "REA") if full else ("REA",)
    lockstep = can_oscillate_multinode(
        canonical.disagree(), model_by_name("R1A"), queue_bound=2
    )
    staggered = can_oscillate_multinode(
        canonical.disagree(),
        model_by_name("R1A"),
        queue_bound=2,
        require_solo_activations=True,
    )
    survey = experiment_convergence_rates(config=config.replace(step_bound=None))
    return {
        "figure3": experiment_figure3(config=config).as_dict(),
        "figure4": experiment_figure4(config=config).as_dict(),
        "disagree": experiment_disagree(config=config).as_dict(),
        "fig6": experiment_fig6(polling_models=polling, config=config).as_dict(),
        "fig7": experiment_fig7().as_dict(),
        "fig8": experiment_fig8().as_dict(),
        "fig9": experiment_fig9().as_dict(),
        "multinode": experiment_multinode().as_dict(),
        "multinode_exhaustive": {
            "lockstep_oscillates": lockstep.oscillates,
            "solo_activation_oscillates": staggered.oscillates,
        },
        "dispute_wheels": experiment_dispute_wheels().as_dict(),
        "message_overhead": experiment_message_overhead().as_dict(),
        "convergence_rates": survey.as_dict(),
    }
