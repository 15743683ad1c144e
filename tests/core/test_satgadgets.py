"""Tests for the 3-SAT → SPP reduction (NP-completeness substrate)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import RunConfig
from repro.core.dispute import has_dispute_wheel
from repro.core.sat import dpll, random_formula, satisfying_assignments
from repro.core.satgadgets import (
    assignment_from_solution,
    formula_to_spp,
    solution_from_assignment,
)
from repro.core.solutions import enumerate_stable_solutions, is_solution
from repro.engine.explorer import can_oscillate
from repro.models.taxonomy import model

SAT_EXAMPLE = ((1, -2), (2, 3), (-1, -3))
UNSAT_EXAMPLE = ((1, 2), (1, -2), (-1, 2), (-1, -2))


class TestConstruction:
    def test_instance_shape(self):
        instance = formula_to_spp(SAT_EXAMPLE)
        # 3 variables × 2 nodes + 3 clauses × 3 nodes + d.
        assert len(instance.nodes) == 3 * 2 + 3 * 3 + 1
        assert instance.name == "SAT-3v3c"

    def test_clause_witness_ranking(self):
        instance = formula_to_spp(((1, -2),))
        order = instance.preference_order("c0")
        # Witness routes first (clause order), then the triangle, then direct.
        assert order[0] == ("c0", "w1", "d")
        assert order[1] == ("c0", "u2", "d")
        assert order[2] == ("c0", "h0.1", "d")
        assert order[3] == ("c0", "d")

    def test_reduction_instances_always_have_wheels(self):
        # Every variable gadget is a DISAGREE, hence a wheel.
        assert has_dispute_wheel(formula_to_spp(SAT_EXAMPLE))


class TestEquivalence:
    def test_satisfiable_formula_gives_solvable_instance(self):
        instance = formula_to_spp(SAT_EXAMPLE)
        assert next(iter(enumerate_stable_solutions(instance)), None) is not None

    def test_unsatisfiable_formula_gives_unsolvable_instance(self):
        instance = formula_to_spp(UNSAT_EXAMPLE)
        assert list(enumerate_stable_solutions(instance)) == []

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=5000))
    def test_solvability_equals_satisfiability(self, seed):
        formula = random_formula(seed, n_vars=3, n_clauses=3, width=2)
        instance = formula_to_spp(formula)
        satisfiable = dpll(formula) is not None
        solvable = (
            next(iter(enumerate_stable_solutions(instance)), None) is not None
        )
        assert satisfiable == solvable

    def test_solution_count_at_least_model_count(self):
        # Each satisfying assignment induces a distinct stable solution.
        formula = ((1, 2),)
        models = list(satisfying_assignments(formula))
        solutions = list(enumerate_stable_solutions(formula_to_spp(formula)))
        assert len(solutions) >= len(models)


class TestTranslations:
    def test_assignment_to_solution_is_stable(self):
        model_ = dpll(SAT_EXAMPLE)
        instance = formula_to_spp(SAT_EXAMPLE)
        solution = solution_from_assignment(SAT_EXAMPLE, model_)
        assert is_solution(instance, solution)

    def test_roundtrip(self):
        model_ = dpll(SAT_EXAMPLE)
        solution = solution_from_assignment(SAT_EXAMPLE, model_)
        decoded = assignment_from_solution(SAT_EXAMPLE, solution)
        assert decoded == {k: model_[k] for k in decoded}

    def test_unsatisfying_assignment_rejected(self):
        with pytest.raises(ValueError, match="not satisfied"):
            solution_from_assignment(((1,),), {1: False})

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=5000))
    def test_every_stable_solution_decodes_to_a_model(self, seed):
        formula = random_formula(seed, n_vars=3, n_clauses=3, width=2)
        instance = formula_to_spp(formula)
        from repro.core.sat import evaluate

        for solution in enumerate_stable_solutions(instance):
            assignment = assignment_from_solution(formula, solution)
            assert evaluate(formula, assignment)


class TestDynamics:
    def test_unsat_instance_oscillates_in_every_tested_model(self):
        instance = formula_to_spp(((1,), (-1,)))
        for name in ("R1O", "RMS", "REA"):
            assert can_oscillate(
                instance, model(name), config=RunConfig(queue_bound=2)
            ).oscillates

    def test_sat_instance_can_reach_its_solution(self):
        """A fair run may converge (solutions exist) — verify at least
        that the encoded solution is a genuine fixed point target."""
        from repro.core.solutions import best_response

        formula = ((1,),)
        instance = formula_to_spp(formula)
        solution = solution_from_assignment(formula, {1: True})
        for node in instance.nodes:
            assert solution[node] == best_response(instance, node, solution)
