"""Differential tests for the partial-order reducer.

The reducer (``repro.engine.reduction``) merges ext-equivalent
interleavings and forces redundant-message absorption steps; these
tests pin its external contract against the unreduced search:

* ``oscillates`` is identical — the reduction never flips a verdict;
* ``complete`` is monotone — the reduced search may certify more
  (absorption shortens queues, so bounded coverage grows), never less;
* witnesses remain replayable, model-legal, periodic oscillations;
* the packed engine stays **bit-identical** to the reference engine
  under reduction — including ``states_explored`` and
  ``states_pruned`` — on instances without symmetry, and keeps the
  verdict with monotone completeness on symmetric ones.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import RunConfig
from repro.core import instances as gadgets
from repro.core.generators import random_instance
from repro.engine.execution import Execution
from repro.engine.explorer import Explorer, can_oscillate
from repro.engine.reduction import validate_reduction
from repro.models.constraints import is_legal_entry
from repro.models.taxonomy import ALL_MODELS, model

from .test_packed_differential import (
    assert_engines_agree,
    assert_monotone_contract,
)

model_indexes = st.integers(min_value=0, max_value=len(ALL_MODELS) - 1)
seeds = st.integers(min_value=0, max_value=10_000)
SLOW = dict(max_examples=25, deadline=None)

SINGLE_NODE_MODELS = [m for m in ALL_MODELS if m.concurrency.name == "ONE"]


def explore(instance, m, reduction, engine="packed", queue_bound=2,
            max_states=20_000):
    return Explorer(
        instance,
        m,
        queue_bound=queue_bound,
        max_states=max_states,
        engine=engine,
        reduction=reduction,
    ).explore()


def assert_verdict_contract(instance, m, queue_bound=2, max_states=20_000):
    base = explore(instance, m, "none", queue_bound=queue_bound,
                   max_states=max_states)
    reduced = explore(instance, m, "ample", queue_bound=queue_bound,
                      max_states=max_states)
    assert reduced.oscillates == base.oscillates, m.name
    # Absorption only shortens queues, so reduced bounded coverage is a
    # superset: completeness may strengthen but never weaken.
    assert reduced.complete >= base.complete, m.name
    assert base.states_pruned == 0
    if base.complete:
        assert reduced.states_explored <= base.states_explored, m.name
    return reduced


class TestVerdictIdentity:
    @pytest.mark.parametrize("m", SINGLE_NODE_MODELS, ids=lambda m: m.name)
    def test_disagree_all_models(self, disagree, m):
        assert_verdict_contract(disagree, m, queue_bound=3)

    @pytest.mark.parametrize(
        "factory",
        (gadgets.bad_gadget, gadgets.good_gadget, gadgets.fig7_gadget),
        ids=lambda f: f.__name__,
    )
    def test_curated_gadgets_representative_models(self, factory):
        instance = factory()
        for name in ("R1O", "REO", "RMS", "REA", "U1S", "UEA"):
            assert_verdict_contract(instance, model(name))

    @settings(**SLOW)
    @given(seeds, model_indexes)
    def test_random_instances_all_models(self, seed, model_index):
        m = ALL_MODELS[model_index]
        if m.concurrency.name != "ONE":
            return
        instance = random_instance(seed % 40, n_nodes=3)
        assert_verdict_contract(instance, m, max_states=5_000)


class TestEngineBitIdentityUnderReduction:
    """Packed against reference with the reducer on: bit-identical where
    the automorphism group is trivial, the monotone contract otherwise
    (DISAGREE is symmetric, so packed folds its orbits)."""

    @pytest.mark.parametrize("m", SINGLE_NODE_MODELS, ids=lambda m: m.name)
    def test_disagree(self, disagree, m):
        assert_monotone_contract(disagree, m, reduction="ample",
                                 queue_bound=3)

    @settings(**SLOW)
    @given(seeds, model_indexes)
    def test_random_instances(self, seed, model_index):
        m = ALL_MODELS[model_index]
        if m.concurrency.name != "ONE":
            return
        instance = random_instance(seed % 40, n_nodes=3)
        assert_engines_agree(instance, m, reduction="ample",
                             max_states=5_000)


class TestReducedWitnesses:
    @pytest.mark.parametrize(
        "factory,name",
        [
            (gadgets.disagree, "R1O"),
            (gadgets.disagree, "RMS"),
            (gadgets.bad_gadget, "REA"),
            (gadgets.bad_gadget, "R1O"),
        ],
        ids=lambda value: getattr(value, "__name__", value),
    )
    def test_witness_replays_and_cycles(self, factory, name):
        instance = factory()
        explorer = Explorer(
            instance, model(name), queue_bound=3, reduction="ample"
        )
        result = explorer.explore()
        assert result.oscillates and result.witness is not None
        execution = Execution(instance)
        for entry in result.witness.prefix:
            assert is_legal_entry(model(name), instance, entry)
            execution.step(entry)
        cycle_start = explorer.canonicalize(execution.state)
        assignments = set()
        for entry in result.witness.cycle:
            assert is_legal_entry(model(name), instance, entry)
            execution.step(entry)
            assignments.add(execution.state.assignment_key)
        assert explorer.canonicalize(execution.state) == cycle_start
        assert len(assignments) >= 2


class TestAccounting:
    def test_no_reduction_means_no_pruning(self, disagree):
        for engine in ("packed", "reference"):
            result = explore(disagree, model("R1O"), "none", engine=engine,
                             queue_bound=3)
            assert result.states_pruned == 0

    def test_reduction_prunes_on_fig7(self, fig7):
        base = explore(fig7, model("R1O"), "none")
        reduced = explore(fig7, model("R1O"), "ample")
        assert reduced.states_pruned > 0
        assert reduced.states_explored < base.states_explored

    def test_unknown_reduction_rejected(self, disagree):
        with pytest.raises(ValueError, match="unknown reduction"):
            Explorer(disagree, model("R1O"), reduction="sleep-sets")
        with pytest.raises(ValueError, match="unknown reduction"):
            can_oscillate(
                disagree, model("R1O"), config=RunConfig(reduction="sleep-sets")
            )
        assert validate_reduction("ample") == "ample"
        assert validate_reduction("none") == "none"


class TestCanOscillateThreading:
    @pytest.mark.parametrize("name", ("R1O", "REA", "UMS", "UEA"))
    def test_reduction_parameter_keeps_verdicts(self, disagree, name):
        base = can_oscillate(
            disagree, model(name), config=RunConfig(queue_bound=3, reduction="none")
        )
        reduced = can_oscillate(
            disagree, model(name), config=RunConfig(queue_bound=3, reduction="ample")
        )
        assert reduced.oscillates == base.oscillates
        assert reduced.complete >= base.complete
