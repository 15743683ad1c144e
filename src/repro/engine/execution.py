"""The iterative routing algorithm of Def. 2.3.

:func:`apply_entry` is the pure single-step transition; an
:class:`Execution` strings steps into a recorded :class:`Trace`.

Step semantics, with the interpretation decisions of DESIGN.md:

1. For every updating node ``v`` and processed channel ``c = (u, v)``:
   process ``i = m_c`` messages if ``f(c) = ∞``, else
   ``i = min(f(c), m_c)`` (the paper's ``max`` is a typo — a node cannot
   process messages that are not there).  Among the processed indices
   ``{1..i}``, those in ``g(c)`` are dropped; if any survive, ``ρ_v(c)``
   becomes the *last* surviving one.  The first ``i`` messages leave the
   channel either way.
2. Every updating node picks its most preferred feasible extension of
   its known routes ``ρ`` (over *all* neighbors, processed or not).
3. A node whose choice differs from its last announcement writes the
   new choice — possibly ε, a withdrawal — to all outgoing channels
   allowed by the export policy.

With multiple updating nodes (Ex. A.6) all reads happen against the
step's initial channel contents before any writes are appended; each
channel has a single writer and a single reader, so this is
well-defined.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from ..core.paths import EPSILON, Node, Path
from ..core.spp import SPPInstance
from .activation import INFINITY, ActivationEntry
from .state import NetworkState

__all__ = ["ExportPolicy", "StepRecord", "Trace", "Execution", "apply_entry"]

#: Decides whether ``node`` may announce ``path`` to ``neighbor``.
ExportPolicy = Callable


def export_everything(
    instance: SPPInstance, node: Node, neighbor: Node, path: Path
) -> bool:
    """The default export policy: announce every change to every neighbor."""
    return True


@dataclass(frozen=True)
class StepRecord:
    """What happened during one applied activation entry."""

    entry: ActivationEntry
    #: channel → tuple of messages removed from the channel this step.
    processed: dict
    #: channel → the new ρ value, only for channels whose ρ changed.
    learned: dict
    #: node → (old π, new π) for nodes whose assignment changed.
    changes: dict
    #: (channel, route) pairs written this step, in write order.
    announcements: tuple
    #: node → channel supplying the selected path's next hop (or None).
    selected_source: dict

    @property
    def changed(self) -> bool:
        return bool(self.changes)


def apply_entry(
    instance: SPPInstance,
    state: NetworkState,
    entry: ActivationEntry,
    export_policy: ExportPolicy = export_everything,
) -> tuple:
    """Apply one activation entry; return ``(new_state, StepRecord)``."""
    pi = state.pi
    rho = state.rho
    channels = state.channels  # dict of immutable tuples
    announced = state.announced

    processed: dict = {}
    learned: dict = {}
    reads = entry.reads
    drops = entry.drops

    # --- Step 1: collect updates from the processed channels. ---------
    for channel in entry.sorted_channels:
        if channel not in channels:
            raise ValueError(f"entry processes unknown channel {channel!r}")
        queue = channels[channel]
        requested = reads[channel]
        count = len(queue) if requested == INFINITY else min(requested, len(queue))
        taken = queue[:count]
        channels[channel] = queue[count:]
        processed[channel] = taken
        dropped = drops.get(channel, ())
        surviving = [
            index for index in range(1, count + 1) if index not in dropped
        ]
        if surviving:
            new_route = taken[surviving[-1] - 1]
            if rho[channel] != new_route:
                learned[channel] = new_route
            rho[channel] = new_route

    # --- Steps 2-3: choose and record changes. -------------------------
    changes: dict = {}
    selected_source: dict = {}
    for node in entry.sorted_nodes:
        if node == instance.dest:
            new_path = (instance.dest,)
        else:
            candidates = {
                channel: instance.feasible_extension(node, rho[channel])
                for channel in instance.in_channels(node)
            }
            new_path = instance.best_choice(node, candidates.values())
            source = None
            if new_path != EPSILON:
                for channel in instance.selection_channels(node):
                    if candidates[channel] == new_path:
                        source = channel
                        break
            selected_source[node] = source
        if new_path != pi[node]:
            changes[node] = (pi[node], new_path)
        pi[node] = new_path

    # --- Step 4: announce changes. --------------------------------------
    announcements: list = []
    for node in entry.sorted_nodes:
        if pi[node] == announced[node]:
            continue
        for out_channel in instance.out_channels(node):
            neighbor = out_channel[1]
            if export_policy(instance, node, neighbor, pi[node]):
                channels[out_channel] = channels[out_channel] + (pi[node],)
                announcements.append((out_channel, pi[node]))
        announced[node] = pi[node]

    new_state = NetworkState.from_instance_order(
        instance,
        pi=pi,
        rho=rho,
        channels=channels,
        announced=announced,
    )
    record = StepRecord(
        entry=entry,
        processed=processed,
        learned=learned,
        changes=changes,
        announcements=tuple(announcements),
        selected_source=selected_source,
    )
    return new_state, record


@dataclass
class Trace:
    """A recorded execution: states, π-sequence, and per-step records."""

    instance: SPPInstance
    initial_state: NetworkState
    states: list = field(default_factory=list)
    records: list = field(default_factory=list)

    @property
    def final_state(self) -> NetworkState:
        return self.states[-1] if self.states else self.initial_state

    def __len__(self) -> int:
        return len(self.records)

    @property
    def pi_sequence(self) -> tuple:
        """The sequence ``π(0), π(1), …`` of full assignments (canonical).

        Index ``t`` holds the assignment *after* step ``t`` — the
        sequence the realization relations of Sec. 3 compare.
        """
        return tuple(state.assignment_key for state in self.states)

    def assignment_after(self, step: int) -> dict:
        """π as a dict after 1-based step ``step`` (paper's t = 1, 2, …)."""
        return self.states[step - 1].pi

    def changed_steps(self) -> tuple:
        """The 0-based indices of steps that changed some assignment."""
        return tuple(
            index for index, record in enumerate(self.records) if record.changed
        )


class Execution:
    """Drives the algorithm over an instance, recording a :class:`Trace`."""

    def __init__(
        self,
        instance: SPPInstance,
        export_policy: ExportPolicy = export_everything,
        initial_state: NetworkState | None = None,
    ) -> None:
        self.instance = instance
        self.export_policy = export_policy
        self.state = initial_state or NetworkState.initial(instance)
        self.trace = Trace(instance=instance, initial_state=self.state)

    def step(self, entry: ActivationEntry) -> StepRecord:
        """Apply one entry, advancing and recording state."""
        self.state, record = apply_entry(
            self.instance, self.state, entry, self.export_policy
        )
        self.trace.states.append(self.state)
        self.trace.records.append(record)
        return record

    def run(self, schedule: Iterable[ActivationEntry]) -> Trace:
        """Apply every entry of a finite schedule; return the trace."""
        for entry in schedule:
            self.step(entry)
        return self.trace

    def run_nodes(self, nodes: Sequence[Node], kind: str = "poll") -> Trace:
        """Run a node-only schedule in a fully-determined E-scope style.

        ``kind="poll"`` uses REA entries (Ex. A.4/A.5 traces);
        ``kind="one-each"`` uses REO entries (Ex. A.2/A.3 traces).
        """
        makers = {
            "poll": ActivationEntry.poll_all,
            "one-each": ActivationEntry.read_one_each,
        }
        try:
            maker = makers[kind]
        except KeyError:
            raise ValueError(f"unknown schedule kind {kind!r}") from None
        for node in nodes:
            self.step(maker(self.instance, node))
        return self.trace
