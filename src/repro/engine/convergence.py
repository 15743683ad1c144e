"""Convergence and oscillation detection for recorded executions.

Def. 2.5 calls an activation sequence *convergent* when the induced
π-sequence is eventually constant.  On finite prefixes we use two
sound certificates:

* **Fixed point** — all channels are empty, every node's recomputed
  best response over its known routes ρ equals its current assignment,
  and every assignment has been announced.  From such a state *no*
  activation entry of *any* model can change anything, so the run has
  converged in the strongest possible sense.
* **State recurrence** — a full network state repeats.  Under a
  deterministic scheduler this certifies an oscillation (the execution
  is periodic from the first occurrence); under a randomized scheduler
  it is merely evidence (the paper-grade certificates come from
  :mod:`repro.engine.explorer`).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.spp import SPPInstance
from ..models.taxonomy import CommunicationModel
from .execution import Execution, Trace
from .schedulers import RandomScheduler, Scheduler
from .state import NetworkState

__all__ = [
    "RunResult",
    "find_oscillation_evidence",
    "find_state_recurrence",
    "is_fixed_point",
    "simulate",
]


def is_fixed_point(instance: SPPInstance, state: NetworkState) -> bool:
    """True when no activation entry whatsoever can change the state."""
    if not state.is_quiescent():
        return False
    rho = state.rho
    for node in instance.nodes:
        if node == instance.dest:
            expected = (instance.dest,)
        else:
            expected = instance.best_choice(
                node,
                [
                    instance.feasible_extension(node, rho[channel])
                    for channel in instance.in_channels(node)
                ],
            )
        if state.path_of(node) != expected:
            return False
        if state.last_announced(node) != expected:
            # An unannounced assignment would emit messages on the
            # node's next activation, so the state is not yet fixed.
            return False
    return True


def find_state_recurrence(trace: Trace) -> "tuple | None":
    """Return ``(first, second)`` step indices of a repeated state, if any."""
    seen: dict = {trace.initial_state: -1}
    for index, state in enumerate(trace.states):
        if state in seen:
            return (seen[state], index)
        seen[state] = index
    return None


def find_oscillation_evidence(trace: Trace) -> "tuple | None":
    """A state recurrence whose loop visits ≥ 2 distinct assignments.

    A repeated full state alone can be a no-op step (e.g. reading an
    empty channel); genuine oscillation evidence additionally requires
    the loop between the occurrences to change the path assignment.
    Replaying the loop forever yields a nonconvergent execution, so
    under a fair schedule this is a certificate of divergence.
    Returns ``(first, second)`` step indices, or ``None``.
    """
    positions: dict = {trace.initial_state: [-1]}
    assignments = trace.pi_sequence
    for index, state in enumerate(trace.states):
        for earlier in positions.get(state, ()):
            loop = assignments[earlier + 1 : index + 1]
            if len(set(loop)) >= 2:
                return (earlier, index)
        positions.setdefault(state, []).append(index)
    return None


@dataclass(frozen=True)
class RunResult:
    """Outcome of one simulated execution."""

    instance_name: str
    model_name: str
    converged: bool
    steps: int
    final_assignment: dict
    recurrence: "tuple | None" = None
    trace: "Trace | None" = None


def simulate(
    instance: SPPInstance,
    model: CommunicationModel,
    scheduler: "Scheduler | None" = None,
    seed: int = 0,
    max_steps: int = 2000,
    keep_trace: bool = False,
) -> RunResult:
    """Run one fair execution until fixed point or step budget.

    With the default :class:`RandomScheduler`, a convergent instance
    virtually always reaches its fixed point well within the budget;
    budget exhaustion on a divergent instance is *evidence* of
    oscillation (pair with the explorer for proof).
    """
    scheduler = scheduler or RandomScheduler(instance, model, seed=seed)
    execution = Execution(instance)
    converged = False
    steps = 0
    for steps in range(1, max_steps + 1):
        execution.step(scheduler.next_entry(execution.state))
        if is_fixed_point(instance, execution.state):
            converged = True
            break
    return RunResult(
        instance_name=instance.name,
        model_name=model.name,
        converged=converged,
        steps=steps,
        final_assignment=execution.state.pi,
        recurrence=find_state_recurrence(execution.trace) if not converged else None,
        trace=execution.trace if keep_trace else None,
    )
