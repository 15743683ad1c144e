"""Differential pins for settling models through containment twins.

With ``reliable_twin_first=True`` a model is settled through two edges
of Prop. 3.3 before it is searched (DESIGN.md §7.4): a 1- or E-scope
model is implied safe when its M-scope twin completes without a fair
oscillation, and an unreliable model takes its reliable twin's witness.
Over a corpus of paper gadgets and seeded random instances these tests
pin that an implied verdict is never weaker than a direct search:

* every implied verdict equals a direct ``reference`` search wherever
  that search is conclusive;
* against the direct packed search (``reliable_twin_first=False``)
  ``oscillates`` never differs and ``complete`` never goes from True
  to False;
* every reliable-twin witness replays under the requested model;
* an implied negative carries its twin's counts and no witness.
"""

from functools import lru_cache

import pytest

from repro.config import RunConfig
from repro.core import instances as gadgets
from repro.core.generators import random_instance
from repro.engine.execution import Execution
from repro.engine.explorer import (
    Explorer,
    _search,
    _settle,
    _shared_searches,
    can_oscillate,
)
from repro.models.constraints import is_legal_entry
from repro.models.dimensions import NeighborScope
from repro.models.taxonomy import ALL_MODELS, model

QUEUE_BOUND = 2
CONFIG = RunConfig(engine="packed", queue_bound=QUEUE_BOUND, step_bound=20_000)
BOUNDS = (QUEUE_BOUND, CONFIG.max_states, "packed", CONFIG.reduction)
#: The reference engine is the slow oracle; where it cannot conclude
#: within this budget it is not consulted.
REFERENCE_STATES = 300

CORPUS = {
    "fig5": gadgets.disagree,
    "fig6": gadgets.fig6_gadget,
    "fig7": gadgets.fig7_gadget,
    "fig8": gadgets.fig8_gadget,
    "fig9": gadgets.fig9_gadget,
    "grid": lambda: gadgets.disagree_grid(2),
    **{
        f"random-{seed}": (
            lambda seed=seed: random_instance(seed, n_nodes=4 + seed % 2)
        )
        for seed in range(40)
    },
}


@lru_cache(maxsize=None)
def verdicts(label):
    """``(instance, {name: (settled, implied_by)}, {name: direct})``."""
    instance = CORPUS[label]()
    with _shared_searches():
        settled = {m.name: _settle(instance, m, BOUNDS) for m in ALL_MODELS}
        direct = {m.name: _search(instance, m, *BOUNDS) for m in ALL_MODELS}
    return instance, settled, direct


def implied(label):
    _, settled, _ = verdicts(label)
    return sorted(name for name, (_, by) in settled.items() if by is not None)


@pytest.mark.parametrize("label", sorted(CORPUS))
def test_implied_verdicts_equal_reference(label):
    instance, settled, _ = verdicts(label)
    for name in implied(label):
        result = settled[name][0]
        reference = Explorer(
            instance,
            model(name),
            queue_bound=QUEUE_BOUND,
            max_states=REFERENCE_STATES,
            engine="reference",
        ).explore()
        if reference.conclusive:
            assert result.oscillates == reference.oscillates, name


@pytest.mark.parametrize("label", sorted(CORPUS))
def test_settled_never_weaker_than_direct_packed(label):
    _, settled, direct = verdicts(label)
    for name, (result, _) in settled.items():
        assert result.oscillates == direct[name].oscillates, name
        # A positive verdict is a proof through its witness; a twin
        # witness has always been reported complete=False.
        if not result.oscillates:
            assert result.complete or not direct[name].complete, name


@pytest.mark.parametrize("label", sorted(CORPUS))
def test_twin_witnesses_replay_under_the_requested_model(label):
    instance, settled, _ = verdicts(label)
    for name, (result, by) in settled.items():
        if by is None or not result.oscillates:
            continue
        requested = model(name)
        found_in = Explorer(instance, model(by), queue_bound=QUEUE_BOUND)
        execution = Execution(instance)
        for entry in result.witness.prefix:
            assert is_legal_entry(requested, instance, entry), name
            execution.step(entry)
        start = found_in.canonicalize(execution.state)
        assignments = set()
        for entry in result.witness.cycle:
            assert is_legal_entry(requested, instance, entry), name
            execution.step(entry)
            assignments.add(execution.state.assignment_key)
        assert found_in.canonicalize(execution.state) == start, name
        assert len(assignments) >= 2, name


@pytest.mark.parametrize("label", sorted(CORPUS))
def test_implied_negatives_carry_their_twins_counts(label):
    _, settled, direct = verdicts(label)
    for name, (result, by) in settled.items():
        if by is None or result.oscillates:
            continue
        twin = model(by)
        assert model(name).scope is not NeighborScope.MULTIPLE, name
        assert (twin.reliability, twin.count) == (
            model(name).reliability,
            model(name).count,
        )
        assert twin.scope is NeighborScope.MULTIPLE
        assert result.complete and result.truncated_states == 0, name
        assert result.witness is None, name
        assert (result.states_explored, result.states_pruned) == (
            direct[by].states_explored,
            direct[by].states_pruned,
        ), name


def test_corpus_exercises_both_edges():
    scope_edge = twin_witness = 0
    for label in CORPUS:
        _, settled, _ = verdicts(label)
        for result, by in settled.values():
            if by is not None:
                scope_edge += not result.oscillates
                twin_witness += result.oscillates
    # 668 and 32 at the time of writing: both edges carry real weight.
    assert scope_edge >= 300 and twin_witness >= 15


def test_fig7_settles_every_one_and_every_scope_model():
    # Every M model of Fig. 7 completes without oscillation at this
    # bound, so all 16 1/E verdicts are implied, and complete.
    _, settled, _ = verdicts("fig7")
    assert implied("fig7") == sorted(
        m.name for m in ALL_MODELS if m.scope is not NeighborScope.MULTIPLE
    )
    assert all(result.complete for result, _ in settled.values())


def test_can_oscillate_returns_the_settled_verdict():
    instance, settled, direct = verdicts("fig7")
    for name in ("UES", "R1O", "UMS"):
        assert can_oscillate(instance, model(name), config=CONFIG) == settled[name][0]
        assert (
            can_oscillate(
                instance, model(name), reliable_twin_first=False, config=CONFIG
            )
            == direct[name]
        )
