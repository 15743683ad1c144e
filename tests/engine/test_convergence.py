"""Tests for convergence detection and simulation."""

import pytest

from repro.core import instances as canonical
from repro.core.solutions import is_solution
from repro.engine.activation import ActivationEntry
from repro.engine.convergence import (
    find_oscillation_evidence,
    find_state_recurrence,
    is_fixed_point,
    simulate,
)
from repro.engine.execution import Execution
from repro.engine.schedulers import RoundRobinScheduler
from repro.engine.state import NetworkState
from repro.models.taxonomy import model


class TestFixedPoint:
    def test_initial_state_is_not_fixed(self):
        instance = canonical.disagree()
        # d has not announced itself yet: its next activation writes.
        assert not is_fixed_point(instance, NetworkState.initial(instance))

    def test_converged_chain_is_fixed(self):
        instance = canonical.linear_chain(2)
        execution = Execution(instance)
        execution.run_nodes(["d", "n1", "n2", "n1", "d", "n2"], kind="poll")
        assert is_fixed_point(instance, execution.state)

    def test_pending_messages_block_fixed_point(self):
        instance = canonical.linear_chain(1)
        execution = Execution(instance)
        execution.step(ActivationEntry.single("d", ("n1", "d")))
        # n1 has not read d's announcement yet.
        assert not is_fixed_point(instance, execution.state)


class TestSimulate:
    @pytest.mark.parametrize("name", ["R1O", "RMS", "REA", "UMS"])
    def test_good_gadget_converges_everywhere(self, name):
        result = simulate(canonical.good_gadget(), model(name), seed=0)
        assert result.converged
        assert is_solution(canonical.good_gadget(), result.final_assignment)

    @pytest.mark.parametrize("name", ["R1O", "RMS", "REA", "UMS"])
    def test_shortest_ring_converges_everywhere(self, name):
        instance = canonical.shortest_paths_ring(3)
        result = simulate(instance, model(name), seed=1)
        assert result.converged
        assert is_solution(instance, result.final_assignment)

    def test_bad_gadget_never_converges(self):
        result = simulate(
            canonical.bad_gadget(), model("RMS"), seed=0, max_steps=800
        )
        assert not result.converged
        assert result.steps == 800

    def test_disagree_converges_under_polling(self):
        # Ex. A.1: every fair RMA sequence converges on DISAGREE.
        for seed in range(5):
            result = simulate(canonical.disagree(), model("RMA"), seed=seed)
            assert result.converged, seed
            assert is_solution(canonical.disagree(), result.final_assignment)

    def test_result_metadata(self):
        result = simulate(canonical.good_gadget(), model("RMS"), seed=0)
        assert result.instance_name == "GOOD-GADGET"
        assert result.model_name == "RMS"

    def test_keep_trace(self):
        result = simulate(
            canonical.good_gadget(), model("RMS"), seed=0, keep_trace=True
        )
        assert result.trace is not None
        assert len(result.trace) == result.steps

    def test_custom_scheduler(self):
        instance = canonical.good_gadget()
        scheduler = RoundRobinScheduler(instance, model("REA"))
        result = simulate(instance, model("REA"), scheduler=scheduler)
        assert result.converged


class TestRecurrence:
    def test_disagree_r1o_oscillation_recurs(self):
        """The Ex. A.1 schedule revisits a full network state."""
        instance = canonical.disagree()
        execution = Execution(instance)
        execution.step(ActivationEntry.single("d", ("x", "d")))
        execution.step(ActivationEntry.single("x", ("d", "x")))
        execution.step(ActivationEntry.single("y", ("d", "y")))
        for _ in range(6):
            execution.step(ActivationEntry.single("x", ("y", "x")))
            execution.step(ActivationEntry.single("y", ("x", "y")))
            # Keep the run fair: drain the channels into d.
            execution.step(ActivationEntry.single("d", ("x", "d"), count=5))
            execution.step(ActivationEntry.single("d", ("y", "d"), count=5))
        evidence = find_oscillation_evidence(execution.trace)
        assert evidence is not None
        first, second = evidence
        assert second > first

    def test_noop_recurrence_is_not_oscillation_evidence(self):
        instance = canonical.linear_chain(1)
        execution = Execution(instance)
        execution.step(ActivationEntry.single("d", ("n1", "d")))
        execution.step(ActivationEntry.single("d", ("n1", "d")))  # no-op
        execution.step(ActivationEntry.single("d", ("n1", "d")))  # no-op
        assert find_state_recurrence(execution.trace) is not None
        assert find_oscillation_evidence(execution.trace) is None

    def test_no_recurrence_on_progressing_run(self):
        instance = canonical.linear_chain(3)
        execution = Execution(instance)
        execution.run_nodes(["d", "n1", "n2", "n3"], kind="poll")
        assert find_state_recurrence(execution.trace) is None
