"""End-to-end verification of the constructive realization transforms.

Every transform is checked against its claimed relation on a mix of
canonical gadgets (including the divergent BAD GADGET) and random
instances, across several scheduler seeds — the mechanized version of
the paper's Props. 3.3/3.4/3.6 and Thms. 3.5/3.7.
"""

import pytest

from repro.config import RunConfig
from repro.core import instances as canonical
from repro.core.generators import random_instance
from repro.engine.activation import INFINITY
from repro.engine.execution import Execution
from repro.models.constraints import is_legal_entry
from repro.models.taxonomy import model
from repro.realization.transforms import (
    batch_u1o_to_r1s,
    embed,
    expand_r1s_to_r1o,
    expand_u1s_to_u1o,
    find_noop_entry,
    pad_to_every_scope,
    split_multi_scope,
)
from repro.realization.verify import (
    is_exact,
    is_repetition,
    is_subsequence,
)

from ..conftest import record_random_schedule


def pi_sequence(instance, schedule):
    return Execution(instance).run(schedule).pi_sequence


INSTANCES = [
    ("disagree", canonical.disagree),
    ("fig6", canonical.fig6_gadget),
    ("fig7", canonical.fig7_gadget),
    ("bad-gadget", canonical.bad_gadget),
    ("random", lambda: random_instance(17, n_nodes=4)),
]
SEEDS = [0, 1, 2]


@pytest.mark.parametrize("name, factory", INSTANCES, ids=lambda x: x if isinstance(x, str) else "")
class TestEmbed:
    """Prop. 3.3: schedules re-used verbatim in more general models."""

    def test_r_schedule_runs_in_u(self, name, factory):
        instance = factory()
        schedule = record_random_schedule(instance, "R1O", seed=0, steps=30)
        reused = embed(instance, schedule, model("U1O"))
        assert is_exact(
            pi_sequence(instance, schedule), pi_sequence(instance, reused)
        )

    def test_one_scope_schedule_runs_in_m(self, name, factory):
        instance = factory()
        schedule = record_random_schedule(instance, "R1F", seed=1, steps=30)
        reused = embed(instance, schedule, model("RMF"))
        assert reused == tuple(schedule)

    def test_illegal_embedding_rejected(self, name, factory):
        instance = factory()
        schedule = record_random_schedule(instance, "RMS", seed=0, steps=30)
        with pytest.raises(ValueError):
            embed(instance, schedule, model("R1O"))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name, factory", INSTANCES, ids=lambda x: x if isinstance(x, str) else "")
class TestPadToEveryScope:
    """Prop. 3.4: wMS → wES is exact."""

    def test_rms_to_res(self, name, factory, seed):
        instance = factory()
        schedule = record_random_schedule(instance, "RMS", seed=seed, steps=50)
        padded = pad_to_every_scope(instance, schedule)
        for entry in padded:
            assert is_legal_entry(model("RES"), instance, entry)
        assert is_exact(
            pi_sequence(instance, schedule), pi_sequence(instance, padded)
        )

    def test_ums_to_ues(self, name, factory, seed):
        instance = factory()
        schedule = record_random_schedule(
            instance, "UMS", seed=seed, steps=50, drop_prob=0.3
        )
        padded = pad_to_every_scope(instance, schedule)
        for entry in padded:
            assert is_legal_entry(model("UES"), instance, entry)
        assert is_exact(
            pi_sequence(instance, schedule), pi_sequence(instance, padded)
        )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name, factory", INSTANCES, ids=lambda x: x if isinstance(x, str) else "")
class TestSplitMultiScope:
    """Thm. 3.5: wMy → w1y realizes with repetition."""

    @pytest.mark.parametrize(
        "source_model, target_model, padding",
        [
            ("RMO", "R1O", 1),
            ("RMS", "R1S", 1),
            ("RMF", "R1F", 1),
            ("RMA", "R1A", INFINITY),
            ("UMS", "U1S", 1),
        ],
    )
    def test_split_realizes_with_repetition(
        self, name, factory, seed, source_model, target_model, padding
    ):
        instance = factory()
        schedule = record_random_schedule(
            instance, source_model, seed=seed, steps=60, drop_prob=0.2
        )
        split = split_multi_scope(instance, schedule, padding_count=padding)
        target = model(target_model)
        for entry in split:
            assert is_legal_entry(target, instance, entry), entry
        assert is_repetition(
            pi_sequence(instance, schedule), pi_sequence(instance, split)
        )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name, factory", INSTANCES, ids=lambda x: x if isinstance(x, str) else "")
class TestProp36:
    def test_r1s_to_r1o_subsequence(self, name, factory, seed):
        instance = factory()
        schedule = record_random_schedule(
            instance, "R1S", seed=seed, steps=60, drop_prob=0
        )
        expanded = expand_r1s_to_r1o(instance, schedule)
        for entry in expanded:
            assert is_legal_entry(model("R1O"), instance, entry)
        assert is_subsequence(
            pi_sequence(instance, schedule), pi_sequence(instance, expanded)
        )

    def test_u1s_to_u1o_repetition(self, name, factory, seed):
        instance = factory()
        schedule = record_random_schedule(
            instance, "U1S", seed=seed, steps=60, drop_prob=0.3
        )
        expanded = expand_u1s_to_u1o(instance, schedule)
        for entry in expanded:
            assert is_legal_entry(model("U1O"), instance, entry)
        assert is_repetition(
            pi_sequence(instance, schedule), pi_sequence(instance, expanded)
        )


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name, factory", INSTANCES, ids=lambda x: x if isinstance(x, str) else "")
class TestThm37:
    def test_u1o_to_r1s_exact(self, name, factory, seed):
        instance = factory()
        schedule = record_random_schedule(
            instance, "U1O", seed=seed, steps=60, drop_prob=0.3
        )
        batched = batch_u1o_to_r1s(instance, schedule)
        for entry in batched:
            assert is_legal_entry(model("R1S"), instance, entry)
        assert is_exact(
            pi_sequence(instance, schedule), pi_sequence(instance, batched)
        )


class TestNoopHelper:
    def test_noop_preserves_state(self, disagree):
        execution = Execution(disagree)
        entry = find_noop_entry(disagree, execution.state)
        next_state, _ = Execution(disagree).state, None
        from repro.engine.execution import apply_entry

        next_state, _ = apply_entry(disagree, execution.state, entry)
        assert next_state == execution.state


class TestOscillationTransfer:
    """Def. 3.1 operationally: realization transforms carry oscillation
    witnesses from one model into another."""

    @staticmethod
    def _canonical_recurrence(instance, trace, target_model):
        """A repeated canonical state with ≥ 2 assignments in between."""
        from repro.engine.explorer import Explorer

        explorer = Explorer(instance, target_model)
        positions = {}
        assignments = trace.pi_sequence
        for index, state in enumerate(trace.states):
            key = explorer.canonicalize(state)
            for earlier in positions.get(key, ()):
                if len(set(assignments[earlier + 1 : index + 1])) >= 2:
                    return (earlier, index)
            positions.setdefault(key, []).append(index)
        return None

    def test_r1o_witness_transfers_to_queueing_models(self, disagree):
        from repro.engine.explorer import can_oscillate
        from repro.models.taxonomy import model as model_of

        witness = can_oscillate(
            disagree, model_of("R1O"), config=RunConfig(queue_bound=3)
        ).witness
        schedule = witness.prefix + witness.cycle * 4
        for target in ("RMO", "R1S", "RMS", "U1O", "UMS"):
            reused = embed(disagree, schedule, model_of(target))
            trace = Execution(disagree).run(reused)
            assert self._canonical_recurrence(
                disagree, trace, model_of(target)
            ), target

    def test_rms_witness_splits_into_r1s_oscillation(self, disagree):
        """Thm. 3.5's repetition realization preserves the oscillation:
        the multi-channel RMS witness, split into single-channel steps,
        still drives R1S around a cycle."""
        from repro.engine.explorer import can_oscillate
        from repro.models.taxonomy import model as model_of

        witness = can_oscillate(
            disagree, model_of("RMS"), config=RunConfig(queue_bound=3)
        ).witness
        schedule = witness.prefix + witness.cycle * 4
        split = split_multi_scope(disagree, schedule)
        for entry in split:
            assert is_legal_entry(model_of("R1S"), disagree, entry)
        trace = Execution(disagree).run(split)
        assert self._canonical_recurrence(disagree, trace, model_of("R1S"))

    def test_u1o_witness_batches_into_r1s_oscillation(self, disagree):
        """Thm. 3.7 exactly — so the unreliable oscillation replays on
        reliable channels."""
        from repro.engine.explorer import can_oscillate
        from repro.models.taxonomy import model as model_of

        witness = can_oscillate(
            disagree, model_of("U1O"), config=RunConfig(queue_bound=3)
        ).witness
        schedule = witness.prefix + witness.cycle * 4
        batched = batch_u1o_to_r1s(disagree, schedule)
        source_pi = Execution(disagree).run(schedule).pi_sequence
        target_trace = Execution(disagree).run(batched)
        assert is_exact(source_pi, target_trace.pi_sequence)
        assert self._canonical_recurrence(disagree, target_trace, model_of("R1S"))
