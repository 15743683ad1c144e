"""End-to-end integration tests: the paper's storyline, mechanized.

Each test here crosses several subsystems (instances + engine +
explorer + realization) and asserts one of the paper's headline claims.
"""

import pytest

from repro.config import RunConfig
from repro.core import instances as canonical
from repro.core.dispute import has_dispute_wheel
from repro.core.solutions import enumerate_stable_solutions, is_solution
from repro.engine.convergence import simulate
from repro.engine.execution import Execution
from repro.engine.explorer import can_oscillate
from repro.engine.schedulers import RandomScheduler, RoundRobinScheduler
from repro.models.taxonomy import ALL_MODELS, model
from repro.realization.closure import derive_matrix
from repro.realization.relations import Level


class TestAbstractIntro:
    """'Convergence depends on the communication model in nontrivial
    ways' — the same instance converges or not depending on the model."""

    def test_disagree_model_dependence(self):
        instance = canonical.disagree()
        r1o = can_oscillate(instance, model("R1O"), config=RunConfig(queue_bound=3))
        rea = can_oscillate(instance, model("REA"), config=RunConfig(queue_bound=3))
        assert r1o.oscillates and not rea.oscillates
        assert rea.complete

    def test_unreliable_channels_offer_little_benefit(self):
        """Sec. 1: 'reliable channels offer little benefit over
        unreliable channels for guaranteeing convergence' — every
        reliable model's executions embed in its unreliable twin, so
        oscillation verdicts agree R↔U for O/S/F counts on DISAGREE."""
        instance = canonical.disagree()
        for scope in "1M":
            for count in "OSF":
                reliable = can_oscillate(
                    instance, model(f"R{scope}{count}"), config=RunConfig(queue_bound=3)
                )
                unreliable = can_oscillate(
                    instance, model(f"U{scope}{count}"), config=RunConfig(queue_bound=3)
                )
                assert reliable.oscillates == unreliable.oscillates

    def test_polling_state_access_helps(self):
        """Sec. 1: 'always having access to the current network state
        … can help guarantee convergence' — polling (count A) models
        converge on DISAGREE while their O-count twins may not."""
        instance = canonical.disagree()
        assert can_oscillate(
            instance, model("R1O"), config=RunConfig(queue_bound=3)
        ).oscillates
        assert not can_oscillate(
            instance, model("R1A"), config=RunConfig(queue_bound=3)
        ).oscillates


class TestGuaranteesAcrossModels:
    """'No dispute wheel' guarantees convergence in *every* model."""

    def test_good_gadget_safe_in_all_24_models(self):
        instance = canonical.good_gadget()
        assert not has_dispute_wheel(instance)
        for m in ALL_MODELS:
            result = can_oscillate(instance, m, config=RunConfig(queue_bound=2))
            assert not result.oscillates, m.name
            assert result.complete, m.name

    def test_shortest_ring_safe_across_model_families(self):
        """The ring's state space under S/O-count models exceeds the
        small queue bound (its searches stay oscillation-free but
        truncated), so completeness is asserted only where the bound
        suffices."""
        instance = canonical.shortest_paths_ring(3)
        assert not has_dispute_wheel(instance)
        for name in ("R1O", "REO", "RMS", "R1A", "RMA", "REA", "UEO"):
            result = can_oscillate(
                instance, model(name), config=RunConfig(queue_bound=2)
            )
            assert not result.oscillates, name
        for name in ("REO", "R1A", "RMA", "REA", "UEO"):
            assert can_oscillate(
                instance, model(name), config=RunConfig(queue_bound=2)
            ).complete

    def test_unsolvable_instances_diverge_in_all_24_models(self):
        instance = canonical.bad_gadget()
        assert not list(enumerate_stable_solutions(instance))
        for m in ALL_MODELS:
            assert can_oscillate(
                instance, m, config=RunConfig(queue_bound=2)
            ).oscillates, m.name


class TestSimulationAgreesWithModelChecking:
    """Random fair simulation and exhaustive search must tell one story."""

    @pytest.mark.parametrize("name", ["REA", "RMA", "R1A", "REO", "REF"])
    def test_disagree_simulations_always_converge_in_safe_models(self, name):
        instance = canonical.disagree()
        for seed in range(6):
            result = simulate(instance, model(name), seed=seed, max_steps=600)
            assert result.converged, (name, seed)
            assert is_solution(instance, result.final_assignment)

    def test_round_robin_simulations_converge_on_safe_models(self):
        instance = canonical.disagree()
        for name in ("REA", "REO"):
            scheduler = RoundRobinScheduler(instance, model(name))
            result = simulate(instance, model(name), scheduler=scheduler)
            assert result.converged

    def test_converged_assignments_are_stable_solutions(self):
        """Any fixed point the simulator reports must solve the SPP."""
        for factory in (canonical.disagree, canonical.fig7_gadget):
            instance = factory()
            for name in ("RMS", "UMS", "REA"):
                result = simulate(instance, model(name), seed=11)
                if result.converged:
                    assert is_solution(instance, result.final_assignment)


class TestMatrixConsistencyWithExplorer:
    """Oscillation preservation (≥ level 1 in the matrix) must agree
    with concrete explorer verdicts on DISAGREE."""

    def test_oscillation_preservers_of_r1o_oscillate_on_disagree(self):
        matrix = derive_matrix()
        instance = canonical.disagree()
        r1o = model("R1O")
        for m in ALL_MODELS:
            bounds = matrix.get(r1o, m)
            verdict = can_oscillate(instance, m, config=RunConfig(queue_bound=3))
            if bounds.lo >= Level.OSCILLATION:
                assert verdict.oscillates, m.name
            if bounds.hi == Level.NONE and verdict.complete:
                # Models proven NOT to preserve R1O's oscillations must
                # be DISAGREE-safe (that is exactly Thm. 3.8's evidence).
                assert not verdict.oscillates, m.name


class TestLongRunStability:
    def test_long_random_runs_keep_state_well_formed(self):
        """Failure-injection-flavoured soak: heavy drops, many steps."""
        instance = canonical.fig6_gadget()
        scheduler = RandomScheduler(
            instance, model("UMS"), seed=13, drop_prob=0.5
        )
        execution = Execution(instance)
        for _ in range(800):
            execution.step(scheduler.next_entry(execution.state))
        state = execution.state
        for node in instance.nodes:
            path = state.path_of(node)
            if path:
                assert instance.is_permitted(node, path) or node == instance.dest
        for channel in instance.channels:
            for message in state.channel_contents(channel):
                # Every in-flight message is ε or a permitted path of its sender.
                if message:
                    assert instance.is_permitted(channel[0], message) or (
                        channel[0] == instance.dest
                    )
