"""Differential tests: the instance codec and its step ≡ the reference.

``repro.engine.codec`` interns an instance into dense integer ids and
re-implements the Def. 2.3 step on packed tuples; the packed engine
lays its state words out from those ids.  Nothing in these tests knows
*how* — they only demand that packing round-trips and that replayed
trace states are bit-identical to the didactic reference
implementation.  Seeded hypothesis sweeps keep the comparison honest
on instances nobody hand-picked.  The explorer-level comparison lives
in ``test_packed_differential.py``.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import instances as canonical
from repro.core.generators import random_instance
from repro.engine.codec import codec_for, replay_schedule
from repro.engine.execution import Execution
from repro.engine.explorer import Explorer
from repro.engine.schedulers import RandomScheduler
from repro.engine.state import NetworkState
from repro.models.taxonomy import ALL_MODELS, model

from ..conftest import record_random_schedule

model_indexes = st.integers(min_value=0, max_value=len(ALL_MODELS) - 1)
seeds = st.integers(min_value=0, max_value=10_000)

SLOW = dict(max_examples=25, deadline=None)


class TestCodecRoundTrip:
    @settings(**SLOW)
    @given(seeds, model_indexes)
    def test_pack_unpack_identity_along_random_runs(self, seed, model_index):
        instance = random_instance(seed % 50, n_nodes=3)
        codec = codec_for(instance)
        execution = Execution(instance)
        scheduler = RandomScheduler(
            instance, ALL_MODELS[model_index], seed=seed, drop_prob=0.25
        )
        assert codec.unpack_state(codec.initial_packed()) == NetworkState.initial(
            instance
        )
        for _ in range(25):
            execution.step(scheduler.next_entry(execution.state))
            packed = codec.pack_state(execution.state)
            assert codec.unpack_state(packed) == execution.state

    def test_packing_is_injective_on_explored_states(self, disagree):
        codec = codec_for(disagree)
        explorer = Explorer(disagree, model("RMS"), engine="reference")
        seen = {}
        frontier = [explorer.canonicalize(NetworkState.initial(disagree))]
        visited = {frontier[0]}
        while frontier and len(visited) < 200:
            state = frontier.pop()
            packed = codec.pack_state(state)
            assert seen.setdefault(packed, state) == state
            for _, nxt in explorer.successors(state):
                nxt = explorer.canonicalize(nxt)
                if nxt not in visited:
                    visited.add(nxt)
                    frontier.append(nxt)


class TestCompiledStepEquivalence:
    @settings(**SLOW)
    @given(seeds, model_indexes)
    def test_replay_matches_execution_on_random_instances(
        self, seed, model_index
    ):
        instance = random_instance(seed % 50, n_nodes=3)
        model_ = ALL_MODELS[model_index]
        schedule = record_random_schedule(
            instance, model_.name, seed=seed, steps=40, drop_prob=0.25
        )
        reference = Execution(instance).run(schedule).states
        replayed = replay_schedule(instance, schedule)
        assert replayed == reference

    def test_replay_matches_on_canonical_gadgets(self):
        for factory in (
            canonical.disagree,
            canonical.fig6_gadget,
            canonical.fig7_gadget,
            canonical.bad_gadget,
            canonical.good_gadget,
        ):
            instance = factory()
            for model_name in ("R1O", "REA", "UMS"):
                schedule = record_random_schedule(
                    instance, model_name, seed=3, steps=50
                )
                reference = Execution(instance).run(schedule).states
                assert replay_schedule(instance, schedule) == reference

    def test_replay_from_mid_run_state(self, disagree):
        schedule = record_random_schedule(disagree, "RMS", seed=5, steps=30)
        reference = Execution(disagree).run(schedule).states
        resumed = replay_schedule(
            disagree, schedule[10:], initial_state=reference[9]
        )
        assert resumed == reference[10:]
