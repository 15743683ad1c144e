"""E3 — Figure 5 / Example A.1: DISAGREE's model-dependent divergence.

The paper's separation: DISAGREE can oscillate in R1O (and every model
realizing it) but cannot oscillate in REO, REF, R1A, RMA, or REA.  The
benchmark settles the verdict for *all 24 models* by exhaustive bounded
model checking and also times one concrete R1O oscillation replay.
"""

from repro.analysis.experiments import (
    DISAGREE_OSCILLATING_MODELS,
    DISAGREE_SAFE_MODELS,
    experiment_disagree,
)
from repro.config import RunConfig
from repro.core.instances import disagree
from repro.engine.execution import Execution
from repro.engine.explorer import can_oscillate
from repro.models.taxonomy import ALL_MODELS, model

from conftest import once


def test_fig5_verdicts_across_models(benchmark):
    result = once(benchmark, experiment_disagree)
    assert result.correct
    for name in DISAGREE_OSCILLATING_MODELS:
        assert result.results[name].oscillates
    for name in DISAGREE_SAFE_MODELS:
        assert not result.results[name].oscillates
        assert result.results[name].complete
    print()
    print(result.summary)


def test_fig5_all_24_models(benchmark):
    """Beyond the paper: settle every model, including the blank cells
    (UEO, UEF, U1A, UMA, UEA — none can oscillate on DISAGREE)."""

    def sweep():
        return {
            m.name: can_oscillate(disagree(), m, config=RunConfig(queue_bound=3))
            for m in ALL_MODELS
        }

    results = once(benchmark, sweep)
    safe = {name for name, r in results.items() if not r.oscillates}
    assert safe == {
        "REO", "REF", "R1A", "RMA", "REA",
        "UEO", "UEF", "U1A", "UMA", "UEA",
    }
    # Safety verdicts are complete searches; oscillation verdicts carry
    # concrete witnesses (for U models, via the drop-free subgraph).
    assert all(r.conclusive for r in results.values())
    assert all(results[name].complete for name in safe)


def test_fig5_oscillation_replay(benchmark):
    """Time the concrete Ex. A.1 oscillation (one full period)."""
    instance = disagree()
    explorer_result = can_oscillate(
        instance, model("R1O"), config=RunConfig(queue_bound=3)
    )
    witness = explorer_result.witness
    assert witness is not None

    def replay():
        execution = Execution(instance)
        for entry in witness.prefix:
            execution.step(entry)
        for entry in witness.cycle:
            execution.step(entry)
        return execution.trace

    trace = benchmark(replay)
    assert len(set(trace.pi_sequence)) >= 2
