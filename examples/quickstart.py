"""Quickstart: build an SPP instance and watch model-dependent convergence.

Run with::

    python examples/quickstart.py

Builds the paper's DISAGREE gadget (Fig. 5), runs it under two
communication models — the event-driven message-passing model R1O and
the "poll some" model RMA — and shows that the *same* network with the
*same* policies converges under one model and can oscillate under the
other.  That is the paper's headline phenomenon.
"""

from repro import RunConfig, SPPBuilder, can_oscillate, model, simulate
from repro.core.paths import format_path
from repro.core.solutions import enumerate_stable_solutions


def main() -> None:
    # DISAGREE: x prefers routing through y, y prefers routing through x.
    instance = (
        SPPBuilder("d")
        .node("x", "xyd", "xd")   # most preferred first
        .node("y", "yxd", "yd")
        .build("DISAGREE")
    )
    print(instance.describe())
    print()

    solutions = list(enumerate_stable_solutions(instance))
    print(f"The instance has {len(solutions)} stable solutions:")
    for solution in solutions:
        rendered = ", ".join(
            f"{node}={format_path(path)}" for node, path in sorted(solution.items())
        )
        print(f"  {rendered}")
    print()

    # Fair random execution under the polling model RMA: always converges.
    result = simulate(instance, model("RMA"), seed=0)
    print(
        f"RMA (poll some): converged={result.converged} "
        f"after {result.steps} steps"
    )

    # Exhaustive model checking per model: can the instance oscillate?
    for name in ("R1O", "RMS", "REO", "RMA", "REA"):
        verdict = can_oscillate(instance, model(name), config=RunConfig(queue_bound=3))
        certificate = "complete search" if verdict.complete else "witness"
        print(
            f"{name}: oscillation possible = {verdict.oscillates} "
            f"({certificate}, {verdict.states_explored} states)"
        )

    print()
    print(
        "Same network, same policies — whether BGP-style routing can\n"
        "diverge here depends only on how updates are communicated."
    )


if __name__ == "__main__":
    main()
