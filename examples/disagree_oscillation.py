"""Example A.1, mechanized: drive DISAGREE into its R1O oscillation.

Run with::

    python examples/disagree_oscillation.py

Replays the paper's oscillation schedule step by step (d announces,
x and y each learn the direct route, then alternate reading each
other's channel), prints the paper-style trace table, and certifies
the oscillation with the bounded model checker's witness.
"""

from repro.analysis.traces import format_trace_table
from repro.config import RunConfig
from repro.core.instances import disagree
from repro.engine.activation import ActivationEntry
from repro.engine.convergence import find_oscillation_evidence
from repro.engine.execution import Execution
from repro.engine.explorer import can_oscillate
from repro.models.taxonomy import model


def main() -> None:
    instance = disagree()
    print(instance.describe())
    print()

    # The hand-built Ex. A.1 schedule (R1O: one channel, one message).
    execution = Execution(instance)
    execution.step(ActivationEntry.single("d", ("x", "d")))   # d announces
    execution.step(ActivationEntry.single("x", ("d", "x")))   # x -> xd
    execution.step(ActivationEntry.single("y", ("d", "y")))   # y -> yd
    for _ in range(3):
        execution.step(ActivationEntry.single("x", ("y", "x")))
        execution.step(ActivationEntry.single("y", ("x", "y")))
        # Fairness housekeeping: d drains its channels (no effect on π).
        execution.step(ActivationEntry.single("d", ("x", "d"), count=4))
        execution.step(ActivationEntry.single("d", ("y", "d"), count=4))

    print(format_trace_table(execution.trace))
    evidence = find_oscillation_evidence(execution.trace)
    print(f"\nfull-state recurrence with changing π: steps {evidence}")

    # Independent certification by exhaustive search.
    print("\nExhaustive verdicts (queue bound 3):")
    for name in ("R1O", "RMO", "R1S", "REO", "REF", "R1A", "RMA", "REA"):
        verdict = can_oscillate(instance, model(name), config=RunConfig(queue_bound=3))
        print(
            f"  {name}: oscillates={verdict.oscillates} "
            f"complete={verdict.complete}"
        )

    witness = can_oscillate(
        instance, model("R1O"), config=RunConfig(queue_bound=3)
    ).witness
    print(
        f"\nwitness lasso: {len(witness.prefix)}-step prefix, "
        f"period-{witness.period()} cycle through "
        f"{len(witness.assignments)} distinct assignments"
    )


if __name__ == "__main__":
    main()
