"""E4 — Figure 6 / Example A.2: the REO/REF versus polling separation.

Two halves:

* the scripted 13-step REO execution from the paper (verified step by
  step against its table) extended to a *provable oscillation* (a full
  network state recurs with ≥ 2 assignments in the loop); and
* exhaustive verification that none of the polling models R1A, RMA, REA
  can oscillate on the gadget (Thm. 3.9) — a complete bounded search of
  up to ~90k states per model.
"""

from repro.analysis.experiments import experiment_fig6, run_fig6_reo_trace
from repro.config import RunConfig
from repro.core.instances import fig6_gadget
from repro.engine.explorer import can_oscillate
from repro.models.taxonomy import model

from conftest import once


def test_fig6_reo_scripted_oscillation(benchmark):
    trace, matched, recurrence = benchmark(run_fig6_reo_trace)
    assert matched, "scripted REO prefix diverged from the paper's table"
    assert recurrence is not None, "no oscillation evidence found"


def test_fig6_reo_explorer_witness(benchmark):
    """Independent of the scripted trace, the model checker finds an
    REO oscillation witness on the gadget."""
    result = once(
        benchmark,
        can_oscillate,
        fig6_gadget(),
        model("REO"),
        config=RunConfig(queue_bound=3, step_bound=500_000),
    )
    assert result.oscillates


def test_fig6_ref_explorer_witness(benchmark):
    result = once(
        benchmark,
        can_oscillate,
        fig6_gadget(),
        model("REF"),
        config=RunConfig(queue_bound=3, step_bound=500_000),
    )
    assert result.oscillates


def test_fig6_rea_polling_cannot_oscillate(benchmark):
    result = once(
        benchmark,
        can_oscillate,
        fig6_gadget(),
        model("REA"),
        config=RunConfig(queue_bound=2, step_bound=2_000_000),
    )
    assert not result.oscillates
    assert result.complete


def test_fig6_r1a_polling_cannot_oscillate(benchmark):
    result = once(
        benchmark,
        can_oscillate,
        fig6_gadget(),
        model("R1A"),
        config=RunConfig(queue_bound=2, step_bound=2_000_000),
    )
    assert not result.oscillates
    assert result.complete


def test_fig6_rma_polling_cannot_oscillate(benchmark):
    result = once(
        benchmark,
        can_oscillate,
        fig6_gadget(),
        model("RMA"),
        config=RunConfig(queue_bound=2, step_bound=2_000_000),
    )
    assert not result.oscillates
    assert result.complete


def test_fig6_experiment_summary(benchmark):
    result = once(benchmark, experiment_fig6, polling_models=("REA",))
    assert result.oscillates_in_reo
    assert result.polling_safe
    print()
    print(result.summary)
