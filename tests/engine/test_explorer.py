"""Tests for the bounded model checker (oscillation reachability)."""

import pytest

from repro.config import RunConfig
from repro.core import instances as canonical
from repro.engine.activation import INFINITY
from repro.engine.convergence import find_oscillation_evidence
from repro.engine.execution import Execution
from repro.engine.explorer import Explorer, can_oscillate
from repro.models.constraints import is_legal_entry
from repro.models.dimensions import NodeConcurrency
from repro.models.taxonomy import ALL_MODELS, model

#: The verdict for every model on DISAGREE.  {REO, REF, R1A, RMA, REA}
#: is Thm. 3.8's list; the unreliable counterparts {UEO, UEF, U1A, UMA,
#: UEA} correspond to cells the paper leaves blank — our exhaustive
#: searches settle them (they cannot oscillate on DISAGREE either; see
#: EXPERIMENTS.md).  Every other model realizes R1O and inherits its
#: oscillation.
DISAGREE_SAFE = {
    "REO", "REF", "R1A", "RMA", "REA",
    "UEO", "UEF", "U1A", "UMA", "UEA",
}
DISAGREE_VERDICTS = {
    name: name not in DISAGREE_SAFE for name in (m.name for m in ALL_MODELS)
}


class TestDisagreeAcrossAllModels:
    @pytest.mark.parametrize("m", ALL_MODELS, ids=lambda m: m.name)
    def test_verdict_matches_the_paper(self, m):
        result = can_oscillate(canonical.disagree(), m, config=RunConfig(queue_bound=3))
        assert result.oscillates == DISAGREE_VERDICTS[m.name], m.name
        # A verdict must always be a proof on this tiny gadget: a
        # complete search for safety, a concrete witness for oscillation
        # (unreliable positives may come from the drop-free subgraph).
        assert result.conclusive
        if not result.oscillates:
            assert result.complete

    def test_unreliable_every_scope_polling_cannot_oscillate(self):
        # UEA cannot oscillate either (it appears in Fig. 3's -1 rows via
        # column REA etc.) — included in the parametrized check above;
        # spot-check its state count stays small.
        result = can_oscillate(
            canonical.disagree(), model("UEA"), config=RunConfig(queue_bound=3)
        )
        assert result.states_explored < 100


class TestBadAndGoodGadget:
    @pytest.mark.parametrize("name", ["R1O", "REO", "REA", "RMS", "UMS"])
    def test_bad_gadget_oscillates_in_every_model(self, name):
        # No stable solution exists, so every fair execution diverges.
        result = can_oscillate(
            canonical.bad_gadget(), model(name), config=RunConfig(queue_bound=2)
        )
        assert result.oscillates

    @pytest.mark.parametrize("name", ["R1O", "REO", "REA", "RMS", "UMS"])
    def test_good_gadget_never_oscillates(self, name):
        result = can_oscillate(
            canonical.good_gadget(), model(name), config=RunConfig(queue_bound=2)
        )
        assert not result.oscillates
        assert result.complete


class TestWitnessReplay:
    def test_witness_is_executable_and_periodic(self):
        """The witness lasso must replay: prefix reaches the cycle start,
        and one period returns to the same canonical state with ≥ 2
        distinct assignments along the way."""
        instance = canonical.disagree()
        explorer = Explorer(instance, model("R1O"), queue_bound=3)
        result = explorer.explore()
        witness = result.witness
        assert witness is not None
        execution = Execution(instance)
        for entry in witness.prefix:
            execution.step(entry)
        cycle_start = explorer.canonicalize(execution.state)
        seen_assignments = set()
        for entry in witness.cycle:
            execution.step(entry)
            seen_assignments.add(execution.state.assignment_key)
        assert explorer.canonicalize(execution.state) == cycle_start
        assert len(seen_assignments) >= 2

    def test_witness_entries_are_model_legal(self):
        instance = canonical.disagree()
        m = model("U1S")
        result = can_oscillate(instance, m, config=RunConfig(queue_bound=3))
        assert result.witness is not None
        for entry in result.witness.prefix + result.witness.cycle:
            assert is_legal_entry(m, instance, entry)

    def test_witness_cycle_recurs_canonically(self):
        """Replaying the witness cycle loops through the same canonical
        states (destination channels are projected, so raw full states
        may accumulate unread messages at d — that is exactly the "reads
        at d have no effect" clause of Ex. A.1)."""
        instance = canonical.disagree()
        explorer = Explorer(instance, model("R1O"), queue_bound=3)
        result = explorer.explore()
        execution = Execution(instance)
        for entry in result.witness.prefix:
            execution.step(entry)
        canonical_states = []
        for _ in range(3):
            for entry in result.witness.cycle:
                execution.step(entry)
            canonical_states.append(explorer.canonicalize(execution.state))
        assert canonical_states[0] == canonical_states[1] == canonical_states[2]
        assert len(set(execution.trace.pi_sequence)) >= 2


class TestCanonicalization:
    def test_destination_channels_are_projected(self):
        instance = canonical.disagree()
        explorer = Explorer(instance, model("R1O"))
        execution = Execution(instance)
        from repro.engine.activation import ActivationEntry

        execution.step(ActivationEntry.single("d", ("x", "d")))
        execution.step(ActivationEntry.single("x", ("d", "x")))
        canonical_state = explorer.canonicalize(execution.state)
        # x announced xd into (x, d); the projection erases it.
        assert execution.state.channel_contents(("x", "d")) != ()
        assert canonical_state.channel_contents(("x", "d")) == ()

    def test_polling_collapse_keeps_last_message_only(self):
        instance = canonical.disagree()
        explorer = Explorer(instance, model("R1A"), reduction="none")
        from repro.engine.activation import ActivationEntry

        execution = Execution(instance)
        execution.step(ActivationEntry.single("d", ("x", "d")))
        execution.step(ActivationEntry.single("x", ("d", "x")))
        execution.step(ActivationEntry.single("y", ("d", "y")))
        execution.step(ActivationEntry.single("x", ("y", "x")))
        # (x, y) holds [xd, xyd]; count-A models only ever see the last.
        assert len(execution.state.channel_contents(("x", "y"))) == 2
        collapsed = explorer.canonicalize(execution.state)
        assert collapsed.channel_contents(("x", "y")) == (("x", "y", "d"),)
        # With the reducer on, the surviving message is additionally
        # projected onto its ext-class representative: xyd loops at y,
        # so its feasible extension — and hence its representative — is ε.
        reduced = Explorer(instance, model("R1A"), reduction="ample")
        projected = reduced.canonicalize(execution.state)
        assert projected.channel_contents(("x", "y")) == ((),)

    def test_canonicalize_is_idempotent(self):
        instance = canonical.disagree()
        explorer = Explorer(instance, model("RMS"))
        state = explorer.canonicalize(
            Execution(instance).state
        )
        assert explorer.canonicalize(state) == state


class TestSuccessors:
    def test_successors_are_model_legal(self):
        instance = canonical.disagree()
        for name in ("R1O", "RES", "UMA", "REF"):
            m = model(name)
            explorer = Explorer(instance, m)
            execution = Execution(instance)
            from repro.engine.activation import ActivationEntry

            execution.step(ActivationEntry.single("d", ("x", "d")))
            state = explorer.canonicalize(execution.state)
            for entry, _ in explorer.successors(state):
                assert is_legal_entry(m, instance, entry), (name, entry)

    def test_multi_node_models_rejected(self):
        multi = model("R1A").with_concurrency(NodeConcurrency.UNRESTRICTED)
        with pytest.raises(ValueError, match="one-node-per-step"):
            Explorer(canonical.disagree(), multi)

    def test_count_options_dedupe(self):
        explorer = Explorer(canonical.disagree(), model("R1S"))
        assert explorer._count_options(0) == (1,)
        options = explorer._count_options(3)
        assert options == (1, 2, INFINITY)

    def test_result_flags(self):
        result = can_oscillate(
            canonical.disagree(), model("R1O"), config=RunConfig(queue_bound=3)
        )
        assert result.conclusive
        tight = can_oscillate(
            canonical.bad_gadget(),
            model("RMS"),
            config=RunConfig(queue_bound=1, step_bound=50),
        )
        # Either it finds a witness (conclusive) or reports incompleteness.
        assert tight.oscillates or not tight.complete
