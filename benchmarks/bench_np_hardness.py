"""E15 — the NP-completeness context ([9]): SAT as routing policies.

Griffin–Shepherd–Wilfong proved SPP solvability NP-complete; this
benchmark exercises our executable reduction: formulas become policy
configurations whose stable solutions are exactly the satisfying
assignments, unsatisfiable cores become networks that oscillate under
every communication model, and brute-force solvability cost grows with
formula size while the reduction itself stays linear.
"""

import pytest

from repro.config import RunConfig
from repro.core.sat import dpll, random_formula
from repro.core.satgadgets import (
    assignment_from_solution,
    formula_to_spp,
    solution_from_assignment,
)
from repro.core.solutions import enumerate_stable_solutions
from repro.engine.explorer import can_oscillate
from repro.models.taxonomy import model

from conftest import once


def test_reduction_construction_speed(benchmark):
    formula = random_formula(3, n_vars=8, n_clauses=20)

    def build():
        return formula_to_spp(formula)

    instance = benchmark(build)
    assert len(instance.nodes) == 8 * 2 + 20 * 3 + 1


def test_equivalence_sweep(benchmark):
    """Solvability ⟺ satisfiability across a seed sweep."""

    def sweep():
        agreements = 0
        for seed in range(25):
            formula = random_formula(seed, n_vars=3, n_clauses=3, width=3)
            satisfiable = dpll(formula) is not None
            solvable = (
                next(iter(enumerate_stable_solutions(formula_to_spp(formula))), None)
                is not None
            )
            assert satisfiable == solvable, (seed, formula)
            agreements += 1
        return agreements

    assert once(benchmark, sweep) == 25


def test_unsat_core_oscillates_under_every_model_family(benchmark):
    instance = formula_to_spp(((1,), (-1,)))

    def verify():
        return {
            name: can_oscillate(instance, model(name), config=RunConfig(queue_bound=2))
            for name in ("R1O", "REO", "RMS", "REA", "UMS")
        }

    results = once(benchmark, verify)
    assert all(result.oscillates for result in results.values())


def test_translation_roundtrip_speed(benchmark):
    formula = random_formula(11, n_vars=6, n_clauses=10)
    model_ = dpll(formula)
    assert model_ is not None

    def roundtrip():
        solution = solution_from_assignment(formula, model_)
        return assignment_from_solution(formula, solution)

    decoded = benchmark(roundtrip)
    assert decoded == {k: model_[k] for k in decoded}
