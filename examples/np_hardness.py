"""SAT as routing policy: why deciding stability is NP-complete.

Run with::

    python examples/np_hardness.py

Griffin–Shepherd–Wilfong proved that deciding whether an SPP instance
has a stable solution is NP-complete (the context for the paper's
Sec. 4 discussion).  This example makes the reduction executable:

* a CNF formula becomes a network — one DISAGREE pair per variable,
  one conditionally-defused BAD-GADGET triangle per clause;
* satisfying assignments correspond exactly to stable routings;
* an unsatisfiable formula yields a network that **cannot converge
  under any communication model**.
"""

from repro.config import RunConfig
from repro.core.sat import dpll
from repro.core.satgadgets import (
    assignment_from_solution,
    formula_to_spp,
    solution_from_assignment,
)
from repro.core.paths import format_path
from repro.core.solutions import enumerate_stable_solutions
from repro.engine.explorer import can_oscillate
from repro.models.taxonomy import model


def main() -> None:
    formula = ((1, -2), (2, 3), (-1, -3))
    print(f"formula: {formula}")
    instance = formula_to_spp(formula)
    print(
        f"encoded as {instance.name}: {len(instance.nodes)} nodes, "
        f"{len(instance.edges)} edges"
    )

    model_ = dpll(formula)
    print(f"\nDPLL model: {model_}")
    solution = solution_from_assignment(formula, model_)
    print("the corresponding stable routing:")
    for node, path in sorted(solution.items()):
        print(f"  {node}: {format_path(path)}")

    solutions = list(enumerate_stable_solutions(instance))
    print(f"\nstable routings found by brute force: {len(solutions)}")
    decoded = {
        tuple(sorted(assignment_from_solution(formula, s).items()))
        for s in solutions
    }
    print(f"distinct boolean assignments they decode to: {len(decoded)}")

    unsat = ((1,), (-1,))
    print(f"\nunsatisfiable core {unsat}:")
    core = formula_to_spp(unsat)
    print(f"  stable routings: {len(list(enumerate_stable_solutions(core)))}")
    for name in ("R1O", "REA"):
        verdict = can_oscillate(core, model(name), config=RunConfig(queue_bound=2))
        print(
            f"  {name}: oscillation witness found={verdict.oscillates} "
            f"({verdict.states_explored} states)"
        )
    print(
        "\nPolicy autonomy is expressive enough to encode boolean\n"
        "satisfiability — which is exactly why convergence analysis\n"
        "needs sufficient conditions (dispute wheels) and why the\n"
        "communication model's role matters for the residual cases."
    )


if __name__ == "__main__":
    main()
