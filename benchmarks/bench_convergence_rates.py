"""E10 — convergence-rate survey across models (Sec. 5 shape).

The paper's qualitative conclusions: polling models are "safer" (they
rule out some oscillations), queueing models admit every behaviour, and
reliability alone buys little.  The sweep runs fair random executions
on random policy instances and on the gadgets and checks the ordering
of convergence rates.
"""

from repro.analysis.experiments import experiment_convergence_rates
from repro.analysis.stats import survey_convergence
from repro.config import RunConfig
from repro.core import instances as canonical
from repro.core.generators import instance_family
from repro.models.taxonomy import model

from conftest import once


def test_random_instance_survey(benchmark):
    survey = once(
        benchmark,
        experiment_convergence_rates,
        n_instances=8,
        seeds_per_instance=4,
        model_names=("R1O", "REO", "RMS", "REA", "U1O", "UMS"),
        config=RunConfig(workers=1, step_bound=400),
    )
    print()
    print(survey.format_table())
    # Shape: polling (REA) must do at least as well as the queueing and
    # message-passing models — it rules out some oscillations.
    assert survey.rate("REA") >= survey.rate("RMS")
    assert survey.rate("REA") >= survey.rate("R1O")
    # Reliability alone buys little: R/U twins behave comparably.
    assert abs(survey.rate("R1O") - survey.rate("U1O")) <= 0.25
    assert abs(survey.rate("RMS") - survey.rate("UMS")) <= 0.25


def test_disagree_rates_separate_models(benchmark):
    survey = once(
        benchmark,
        survey_convergence,
        [canonical.disagree()],
        [model("RMA"), model("REO"), model("R1O"), model("RMS")],
        seeds_per_instance=10,
        config=RunConfig(workers=1, step_bound=150),
    )
    print()
    print(survey.format_table())
    # The models that provably cannot oscillate on DISAGREE always
    # converge; the others may burn the budget oscillating.
    assert survey.rate("RMA") == 1.0
    assert survey.rate("REO") == 1.0
    assert survey.rate("R1O") <= 1.0
    assert survey.rate("RMS") <= 1.0


def test_safe_family_always_converges(benchmark):
    instances = list(
        instance_family(6, base_seed=3, n_nodes=4, policy="shortest")
    )
    survey = once(
        benchmark,
        survey_convergence,
        instances,
        [model("R1O"), model("UMS"), model("REA")],
        seeds_per_instance=3,
        config=RunConfig(workers=1, step_bound=600),
    )
    for stats in survey.per_model.values():
        assert stats.convergence_rate == 1.0, stats.model_name
