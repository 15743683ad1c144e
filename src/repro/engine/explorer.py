"""Bounded model checking of oscillation reachability.

The paper's separation results assert, for a gadget ``I`` and model
``M``, either "there is a fair activation sequence of ``M`` on ``I``
that does not converge" or "every fair activation sequence of ``M`` on
``I`` converges".  This module decides such claims *mechanically* by
exhaustive search of the reachable state graph, bounded by a channel
budget.

Fair-oscillation criterion (DESIGN.md interpretation note 5).  A fair
nonconvergent execution exists iff some reachable strongly connected
subgraph admits a closed walk that (i) visits at least two distinct
path assignments, (ii) *services* every channel — processes it with
``f ≥ 1`` on some walk edge, or passes a state in which it is empty
(reading an empty channel is a state-preserving no-op, so such reads
can be spliced into the walk to satisfy fairness), (iii) for E-scope
models, activates every node or passes a state where all of the node's
channels are simultaneously empty, and (iv) on unreliable channels,
delivers from every channel it ever drops from (Def. 2.4's drop rule).
We search SCCs of the reachable graph for these properties.

Soundness levers:

* **Destination projection** — channel contents flowing *into* the
  destination and the destination's known routes never influence any
  assignment (``π_d ≡ (d)``), so they are erased from state keys;
  fairness for those channels is trivially satisfiable by no-op reads.
* **Polling collapse** — in *reliable* count-A models only the newest
  message of a channel is ever observable, so channel contents collapse
  to their last element (unreliable polls can deliver intermediate
  messages via drops, so no collapse there).
* **Drop canonicalization** — in U models, a processed batch's effect
  is determined by the largest surviving index, so only ``i + 1`` drop
  patterns per batch are expanded instead of ``2^i``.

A result with ``complete=True`` is a proof (relative to the bound);
``complete=False`` with a witness is still a proof of oscillation,
while ``complete=False`` without one is inconclusive and the caller
should raise the bounds.
"""

from __future__ import annotations

import itertools
import os
import time
from contextlib import contextmanager, nullcontext
from contextvars import ContextVar
from dataclasses import dataclass, field, replace

from ..config import DEFAULT_ENGINE, RunConfig, validate_engine
from ..core.paths import EPSILON, Node
from ..core.spp import SPPInstance
from ..models.dimensions import MessageCount, NeighborScope, Reliability
from ..models.taxonomy import CommunicationModel
from ..obs import active as _telemetry
from ..obs import trace_span
from .activation import INFINITY, ActivationEntry
from .execution import apply_entry
from .reduction import (
    absorption_allowed,
    representative_paths,
    validate_reduction,
)
from .state import NetworkState

__all__ = [
    "ENGINE_REVISION",
    "ExplorationResult",
    "OscillationWitness",
    "Explorer",
    "can_oscillate",
]

#: Bumped whenever the search semantics change (state counts, verdict
#: logic, canonicalization) — part of every verdict-cache key so cached
#: results from an older engine are never replayed.
ENGINE_REVISION = 3


@dataclass(frozen=True)
class OscillationWitness:
    """A certified fair oscillation: a reachable cycle of states."""

    prefix: tuple  # entries leading from the initial state into the cycle
    cycle: tuple  # entries of one full period (non-empty)
    assignments: tuple  # the distinct π values visited by the cycle

    def period(self) -> int:
        return len(self.cycle)


@dataclass(frozen=True)
class ExplorationResult:
    """Outcome of a bounded exploration."""

    model_name: str
    instance_name: str
    oscillates: bool
    complete: bool
    states_explored: int
    truncated_states: int
    #: Successor expansions skipped by the partial-order reducer (0 when
    #: ``reduction="none"``); ``states_explored`` counts the *reduced*
    #: graph, so the reduction ratio is visible instead of counts
    #: silently shrinking.
    states_pruned: int = 0
    witness: "OscillationWitness | None" = None
    #: Whether this result was answered from the verdict cache —
    #: observability metadata only, excluded from equality/repr so
    #: warm and cold results stay interchangeable values.
    cache_hit: "bool | None" = field(default=None, compare=False, repr=False)

    @property
    def conclusive(self) -> bool:
        """True when the verdict is a proof (witness found, or full search)."""
        return self.oscillates or self.complete

    def as_dict(self) -> dict:
        """Machine-readable form (telemetry events, ``--json`` outputs)."""
        return {
            "model": self.model_name,
            "instance": self.instance_name,
            "oscillates": self.oscillates,
            "complete": self.complete,
            "states_explored": self.states_explored,
            "truncated_states": self.truncated_states,
            "states_pruned": self.states_pruned,
            "witness_period": (
                None if self.witness is None else self.witness.period()
            ),
            "cache": (
                None
                if self.cache_hit is None
                else ("hit" if self.cache_hit else "miss")
            ),
        }


class Explorer:
    """Exhaustive bounded search of one (instance, model) state graph.

    ``engine`` selects the execution core: ``"packed"`` (default)
    runs the search on single-integer state words via
    :mod:`repro.engine.packed` — same verdicts, tens to hundreds of
    times faster, and bit-identical results on instances without
    symmetry —
    while ``"reference"`` runs the direct Def. 2.1–2.3 implementation
    below.  The differential tests pin packed against it; keep the
    reference path around as the semantics of record (cf.
    Daggitt–Griffin on verified reference models for policy-rich DBF
    protocols).
    """

    #: Class-level defaults so subclasses that bypass ``__init__`` (the
    #: multi-node explorer) still resolve engine/reduction attributes —
    #: subclasses run unreduced unless they opt in explicitly.
    engine = DEFAULT_ENGINE
    reduction = "none"
    _rep_paths = None
    _absorb = False
    _pruned = 0

    def __init__(
        self,
        instance: SPPInstance,
        model: CommunicationModel,
        queue_bound: int = 3,
        max_states: int = 200_000,
        engine: str = DEFAULT_ENGINE,
        reduction: str = "ample",
    ) -> None:
        if model.concurrency.name != "ONE":
            raise ValueError("the explorer supports one-node-per-step models only")
        validate_engine(engine)
        self.instance = instance
        self.model = model
        self.queue_bound = queue_bound
        self.max_states = max_states
        self.engine = engine
        self.reduction = validate_reduction(reduction)
        self._rep_paths = (
            representative_paths(instance) if self.reduction == "ample" else None
        )
        self._absorb = self.reduction == "ample" and absorption_allowed(model)
        self._pruned = 0
        self._dest_channels = frozenset(
            channel for channel in instance.channels if channel[1] == instance.dest
        )

    # ------------------------------------------------------------------
    # State canonicalization
    # ------------------------------------------------------------------
    def canonicalize(self, state: NetworkState) -> NetworkState:
        """Erase state components that provably cannot affect π."""
        collapse = (
            self.model.count is MessageCount.ALL
            and self.model.reliability is Reliability.RELIABLE
        )
        needs_work = any(
            state.channel_contents(channel) or state.known_route(channel)
            for channel in self._dest_channels
        )
        if not needs_work and collapse:
            needs_work = any(
                len(contents) > 1 for contents in state.channels.values()
            )
        rep = self._rep_paths
        if not needs_work and rep is not None:
            for channel, mapping in rep.items():
                known = state.known_route(channel)
                if mapping[known] != known or any(
                    mapping[m] != m
                    for m in state.channel_contents(channel)
                ):
                    needs_work = True
                    break
        if not needs_work:
            return state
        channels = state.channels
        rho = state.rho
        for channel in self._dest_channels:
            channels[channel] = ()
            rho[channel] = EPSILON
        if collapse:
            # Reliable polling reads are all-or-nothing with g ≡ ∅, so
            # only a channel's newest message is ever observable.  (Not
            # sound for unreliable polling: drops can deliver any
            # intermediate message.)
            for channel, contents in channels.items():
                if len(contents) > 1:
                    channels[channel] = (contents[-1],)
        if rep is not None:
            # ext-projection quotient (see repro.engine.reduction):
            # routes on a channel act only through their feasible
            # extension, so each is replaced by its class representative.
            for channel, mapping in rep.items():
                rho[channel] = mapping[rho[channel]]
                contents = channels[channel]
                if contents:
                    channels[channel] = tuple(mapping[m] for m in contents)
        return NetworkState.from_instance_order(
            self.instance,
            pi=state.pi,
            rho=rho,
            channels=channels,
            announced=state.announced,
        )

    # ------------------------------------------------------------------
    # Successor enumeration
    # ------------------------------------------------------------------
    def _channel_sets(self, node: Node, state: NetworkState) -> tuple:
        """Behaviourally distinct channel sets for activating ``node``.

        Channels that are currently empty contribute nothing to a step
        (processing min(f, 0) = 0 messages never changes ρ), so choices
        are enumerated over the *non-empty* in-channels only; a step
        touching no non-empty channel is a no-op and is pruned entirely
        — except that the destination's very first activation announces
        itself without needing any input, which is special-cased by the
        caller.
        """
        in_channels = self.instance.in_channels(node)
        busy = tuple(
            channel
            for channel in in_channels
            if state.channel_contents(channel)
        )
        scope = self.model.scope
        if scope is NeighborScope.ONE:
            return tuple((channel,) for channel in busy)
        if scope is NeighborScope.EVERY:
            # Legality demands the full set; empty members are no-ops.
            return (in_channels,) if busy else ()
        subsets = []
        for size in range(1, len(busy) + 1):
            subsets.extend(itertools.combinations(busy, size))
        return tuple(subsets)

    def _count_options(self, pending: int) -> tuple:
        """Behaviourally distinct f(c) choices for a channel holding
        ``pending`` messages.

        ``f > m_c`` behaves exactly like ``f = m_c`` (and like ∞), so one
        representative per processed-count suffices.  ``f = 0`` reads
        are no-ops per channel; they are covered by omitting the channel
        in M scope, pointless in 1 scope (the whole step would be a
        no-op), but *essential* in E scope with count S, where the node
        is forced to list every channel yet may skip any of them — this
        is exactly what lets RES mimic RMS (Prop. 3.4).
        """
        kind = self.model.count
        if kind is MessageCount.ONE:
            return (1,)
        if kind is MessageCount.ALL:
            return (INFINITY,)
        if pending == 0:
            return (1,)
        behaviours = list(range(1, pending + 1))
        behaviours[-1] = INFINITY  # canonical "take everything"
        if (
            kind is MessageCount.SOME
            and self.model.scope is NeighborScope.EVERY
        ):
            behaviours.insert(0, 0)
        return tuple(behaviours)

    def _drop_options(self, effective: int) -> tuple:
        """Canonical drop sets for one processed batch of size ``effective``."""
        if self.model.reliability is Reliability.RELIABLE or effective == 0:
            return (frozenset(),)
        options = []
        for survivor in range(effective, 0, -1):
            # Largest surviving index = survivor; canonical g drops the tail.
            options.append(frozenset(range(survivor + 1, effective + 1)))
        options.append(frozenset(range(1, effective + 1)))  # drop everything
        return tuple(options)

    def _destination_kickoff(self, state: NetworkState):
        """The destination's first activation (announces (d) from nothing)."""
        dest = self.instance.dest
        if state.last_announced(dest) == (dest,):
            return None
        in_channels = self.instance.in_channels(dest)
        scope = self.model.scope
        if scope is NeighborScope.ONE and in_channels:
            channels: tuple = (in_channels[0],)
        elif scope is NeighborScope.EVERY:
            channels = in_channels
        else:
            channels = ()
        count: "int | float" = 1
        if self.model.count is MessageCount.ALL:
            count = INFINITY
        return ActivationEntry(
            nodes=[dest],
            channels=channels,
            reads={channel: count for channel in channels},
        )

    def _combo_count(self, pending: int) -> int:
        """How many ``(f, g)`` choices one channel with ``pending``
        messages contributes — the counting twin of the enumeration in
        :meth:`successors`."""
        total = 0
        for count in self._count_options(pending):
            effective = pending if count == INFINITY else min(count, pending)
            total += len(self._drop_options(effective))
        return total

    def _absorption(self, state: NetworkState):
        """The forced absorption step at ``state``, if one applies.

        Mirror of ``PackedExplorer._absorption_succ`` (the same lowest
        channel, found through the packed per-node memo; same guards) —
        see :mod:`repro.engine.reduction` for the soundness argument.
        The successor is built directly: reading a front message that is
        ext-equivalent to the known route cannot change ρ's class, the
        best response, or announcements.
        """
        rep = self._rep_paths
        count_all = self.model.count is MessageCount.ALL
        dest = self.instance.dest
        for channel in self.instance.channels:
            contents = state.channel_contents(channel)
            if not contents:
                continue
            if count_all and len(contents) != 1:
                continue
            mapping = rep[channel]
            if mapping[contents[0]] != mapping[state.known_route(channel)]:
                continue
            receiver = channel[1]
            if receiver == dest:
                continue
            count: "int | float" = INFINITY if count_all else 1
            entry = ActivationEntry(
                nodes=[receiver], channels=(channel,), reads={channel: count}
            )
            channels = state.channels
            channels[channel] = contents[1:]
            next_state = NetworkState.from_instance_order(
                self.instance,
                pi=state.pi,
                rho=state.rho,
                channels=channels,
                announced=state.announced,
            )
            return entry, self.canonicalize(next_state)
        return None

    def _full_entry_count(self, state: NetworkState) -> int:
        """How many entries unreduced enumeration would yield here.

        The per-node terms are the closed forms of the packed twin,
        ``PackedExplorer._menu_size``."""
        total = 0 if self._destination_kickoff(state) is None else 1
        scope = self.model.scope
        for node in self.instance.sorted_nodes:
            in_channels = self.instance.in_channels(node)
            counts = [
                self._combo_count(state.message_count(channel))
                for channel in in_channels
                if state.channel_contents(channel)
            ]
            if not counts:
                continue
            if scope is NeighborScope.ONE:
                total += sum(counts)
            elif scope is NeighborScope.EVERY:
                product = 1
                for channel in in_channels:
                    product *= self._combo_count(state.message_count(channel))
                total += product
            else:
                product = 1
                for n in counts:
                    product *= n + 1
                total += product - 1
        return total

    def successors(self, state: NetworkState):
        """Yield ``(entry, next_state)`` for every behaviourally distinct,
        non-no-op entry."""
        if self._absorb:
            forced = self._absorption(state)
            if forced is not None:
                self._pruned += self._full_entry_count(state) - 1
                yield forced
                return
        kickoff = self._destination_kickoff(state)
        if kickoff is not None:
            next_state, _ = apply_entry(self.instance, state, kickoff)
            yield kickoff, self.canonicalize(next_state)
        for node in self.instance.sorted_nodes:
            for channels in self._channel_sets(node, state):
                per_channel: list = []
                for channel in channels:
                    pending = state.message_count(channel)
                    combos = []
                    for count in self._count_options(pending):
                        effective = (
                            pending if count == INFINITY else min(count, pending)
                        )
                        for dropped in self._drop_options(effective):
                            combos.append((channel, count, dropped))
                    per_channel.append(combos)
                for combo in itertools.product(*per_channel):
                    reads = {channel: count for channel, count, _ in combo}
                    drops = {
                        channel: dropped
                        for channel, _, dropped in combo
                        if dropped
                    }
                    entry = ActivationEntry(
                        nodes=[node], channels=channels, reads=reads, drops=drops
                    )
                    next_state, _ = apply_entry(self.instance, state, entry)
                    yield entry, self.canonicalize(next_state)

    # ------------------------------------------------------------------
    # Reachability + SCC analysis
    # ------------------------------------------------------------------
    def explore(self) -> ExplorationResult:
        """Search for a fair oscillation; see the module docstring.

        A fair cycle found in a *partial* reachable graph is already a
        proof (its states and edges are real), so the search checks for
        one at geometrically spaced checkpoints and returns early on
        success instead of always materializing the full graph.
        """
        # Fast path: the packed-integer port of this exact search.
        # Subclasses (e.g. the multi-node explorer) override successor
        # generation, so only the base class may take it.
        search = self._explore_reference
        if self.engine == "packed" and type(self) is Explorer:
            from .packed import PackedExplorer

            search = PackedExplorer(
                self.instance,
                self.model,
                queue_bound=self.queue_bound,
                max_states=self.max_states,
                reduction=self.reduction,
            ).explore
        with trace_span("explore.search"):
            return search()

    def _explore_reference(self) -> ExplorationResult:
        """The reference (rich-value) search loop."""
        tel = _telemetry()
        search_start = time.perf_counter()
        self._pruned = 0
        initial = self.canonicalize(NetworkState.initial(self.instance))
        index_of: dict = {initial: 0}
        states: list = [initial]
        edges: dict = {}  # state index → list of (entry, target index)
        parent: dict = {0: None}  # for witness prefix reconstruction
        truncated = 0
        # Depth-first: oscillation cycles sit a dozen-odd steps deep
        # (kickoff, route discovery, then the loop), which DFS reaches
        # immediately; positives in unreliable models come from the
        # reliable-twin pre-pass in :func:`can_oscillate` instead.
        frontier = [0]
        overflow = False
        checkpoint = 1024

        def result(witness, complete) -> ExplorationResult:
            return ExplorationResult(
                model_name=self.model.name,
                instance_name=self.instance.name,
                oscillates=witness is not None,
                complete=complete,
                states_explored=len(states),
                truncated_states=truncated,
                states_pruned=self._pruned,
                witness=witness,
            )

        while frontier:
            current = frontier.pop()
            adjacency: list = []
            for entry, nxt in self.successors(states[current]):
                if nxt.total_queued() > self.queue_bound * max(
                    1, len(self.instance.channels)
                ) or any(
                    len(contents) > self.queue_bound
                    for contents in nxt.channels.values()
                ):
                    truncated += 1
                    continue
                if nxt not in index_of:
                    if len(states) >= self.max_states:
                        overflow = True
                        truncated += 1
                        continue
                    index_of[nxt] = len(states)
                    states.append(nxt)
                    parent[index_of[nxt]] = (current, entry)
                    frontier.append(index_of[nxt])
                adjacency.append((entry, index_of[nxt]))
            edges[current] = adjacency
            if len(states) >= checkpoint:
                checkpoint *= 4
                if tel.enabled:
                    tel.heartbeat(
                        "explore",
                        instance=self.instance.name,
                        model=self.model.name,
                        engine="reference",
                        states=len(states),
                        pruned=self._pruned,
                        truncated=truncated,
                        frontier=len(frontier),
                        elapsed_s=round(
                            time.perf_counter() - search_start, 6
                        ),
                    )
                witness = self._find_fair_oscillation(states, edges, parent)
                if witness is not None:
                    return result(witness, complete=False)

        witness = self._find_fair_oscillation(states, edges, parent)
        return result(witness, complete=(truncated == 0 and not overflow))

    # ------------------------------------------------------------------
    def _sccs(self, node_count: int, edges: dict):
        """Iterative Tarjan; yields lists of state indices."""
        index_counter = itertools.count()
        indexes: dict = {}
        lowlink: dict = {}
        on_stack: set = set()
        stack: list = []

        for root in range(node_count):
            if root in indexes:
                continue
            work = [(root, iter(edges.get(root, ())))]
            indexes[root] = lowlink[root] = next(index_counter)
            stack.append(root)
            on_stack.add(root)
            while work:
                vertex, iterator = work[-1]
                advanced = False
                for _, target in iterator:
                    if target not in indexes:
                        indexes[target] = lowlink[target] = next(index_counter)
                        stack.append(target)
                        on_stack.add(target)
                        work.append((target, iter(edges.get(target, ()))))
                        advanced = True
                        break
                    if target in on_stack:
                        lowlink[vertex] = min(lowlink[vertex], indexes[target])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent_vertex = work[-1][0]
                    lowlink[parent_vertex] = min(
                        lowlink[parent_vertex], lowlink[vertex]
                    )
                if lowlink[vertex] == indexes[vertex]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == vertex:
                            break
                    yield component

    def _entry_services(self, entry: ActivationEntry) -> frozenset:
        """Channels genuinely attempted (f ≥ 1) by this entry."""
        return frozenset(
            channel for channel, count in entry.reads.items() if count != 0
        )

    def _fairness_ok(self, component: list, states, edges) -> bool:
        members = set(component)
        inner_edges = [
            (source, entry, target)
            for source in component
            for entry, target in edges.get(source, ())
            if target in members
        ]
        relevant = [
            channel
            for channel in self.instance.channels
            if channel not in self._dest_channels
        ]
        empty_somewhere = {
            channel
            for channel in relevant
            if any(not states[s].channel_contents(channel) for s in component)
        }
        serviced = set()
        dropped_from: set = set()
        delivered_from: set = set()
        activated: set = set()
        full_activation: set = set()
        for source, entry, _ in inner_edges:
            attempts = self._entry_services(entry)
            serviced |= attempts
            for node in entry.nodes:
                activated.add(node)
                in_channels = set(self.instance.in_channels(node))
                if in_channels and in_channels <= attempts:
                    full_activation.add(node)
            for channel in attempts:
                dropped = entry.drop_set(channel)
                count = entry.reads[channel]
                pending = states[source].message_count(channel)
                batch = pending if count == INFINITY else min(count, pending)
                if any(index in dropped for index in range(1, batch + 1)):
                    dropped_from.add(channel)
                if any(
                    index not in dropped for index in range(1, batch + 1)
                ):
                    delivered_from.add(channel)
        for channel in relevant:
            if channel not in serviced and channel not in empty_somewhere:
                return False
        if self.model.scope is NeighborScope.EVERY:
            for node in self.instance.nodes:
                in_channels = set(self.instance.in_channels(node)) - self._dest_channels
                if not in_channels:
                    continue
                all_empty_somewhere = any(
                    all(not states[s].channel_contents(c) for c in in_channels)
                    for s in component
                )
                if node not in full_activation and not all_empty_somewhere:
                    return False
        if self.model.reliability is Reliability.UNRELIABLE:
            for channel in dropped_from:
                if channel not in delivered_from and channel not in empty_somewhere:
                    return False
        return True

    def _find_fair_oscillation(self, states, edges, parent):
        for component in self._sccs(len(states), edges):
            members = set(component)
            has_inner_edge = any(
                target in members
                for source in component
                for _, target in edges.get(source, ())
            )
            if not has_inner_edge:
                continue
            assignments = {states[s].assignment_key for s in component}
            if len(assignments) < 2:
                continue
            if not self._fairness_ok(component, states, edges):
                continue
            return self._build_witness(component, states, edges, parent)
        return None

    # ------------------------------------------------------------------
    def _build_witness(self, component, states, edges, parent) -> OscillationWitness:
        members = set(component)
        anchor = min(component)

        def path_within(start: int, goal: int) -> list:
            """BFS inside the SCC; returns a list of (entry, state index)."""
            if start == goal:
                return []
            queue = [start]
            back: dict = {start: None}
            while queue:
                current = queue.pop(0)
                for entry, target in edges.get(current, ()):
                    if target in members and target not in back:
                        back[target] = (current, entry)
                        if target == goal:
                            steps = []
                            cursor = goal
                            while back[cursor] is not None:
                                previous, entry_taken = back[cursor]
                                steps.append((entry_taken, cursor))
                                cursor = previous
                            steps.reverse()
                            return steps
                        queue.append(target)
            raise AssertionError("SCC members must be mutually reachable")

        # Build one period: visit a state with a different π, then return.
        anchor_pi = states[anchor].assignment_key
        other = next(
            s for s in component if states[s].assignment_key != anchor_pi
        )
        period = path_within(anchor, other) + path_within(other, anchor)
        cycle_entries = tuple(entry for entry, _ in period)

        # Reconstruct a prefix from the initial state to the anchor.
        prefix_entries = []
        cursor = anchor
        while parent.get(cursor) is not None:
            previous, entry = parent[cursor]
            prefix_entries.append(entry)
            cursor = previous
        prefix_entries.reverse()

        visited_assignments = {anchor_pi, states[other].assignment_key}
        return OscillationWitness(
            prefix=tuple(prefix_entries),
            cycle=cycle_entries,
            assignments=tuple(sorted(visited_assignments, key=repr)),
        )


def can_oscillate(
    instance: SPPInstance,
    model: CommunicationModel,
    *,
    reliable_twin_first: bool = True,
    config: "RunConfig | None" = None,
) -> ExplorationResult:
    """Convenience wrapper: explore and report.

    With ``reliable_twin_first`` (the default) a model is first settled
    through two containment edges of Prop. 3.3, each reading a twin's
    verdict instead of searching (DESIGN.md §7.4):

    * a 1- or E-scope model is implied safe when its M-scope twin (same
      reliability and count) completes without a fair oscillation —
      every 1/E entry is an M entry up to no-op reads and E fairness
      only adds a condition, so the verdict is ``complete=True``,
      carries the twin's state counts, and is never weaker than a
      direct search;
    * an unreliable model takes its reliable twin's witness: every Rxy
      activation sequence is a Uxy sequence, and the drop-free twin's
      state space is orders of magnitude smaller.  Only that subgraph
      was searched, so the result is ``complete=False``.

    Only a model neither edge settles is searched itself.  This call is
    the one-model case of the path every fan-out item takes
    (:func:`_certify`), so inside a fan-out twin searches and the
    batch's own tasks for those twins share one run.
    ``reliable_twin_first=False`` searches the model directly.

    ``config`` tunes the run: a :class:`repro.RunConfig` carrying the
    engine, partial-order reducer, bounds (``queue_bound``,
    ``step_bound`` as the state budget), and verdict-cache selection.
    The cache — anything :func:`repro.engine.cache.as_cache` accepts —
    memoizes the result in the content-addressed verdict store, keyed
    by the instance's canonical hash plus the search parameters.  The
    ``engine`` is *not* part of the key, so an entry written by one
    engine answers them all.  Oscillation verdicts agree across
    engines, but the results are not bit-identical: on symmetric
    instances the packed engine folds orbits, so its state counts are
    smaller and it can report ``complete`` within a budget the
    reference engine exhausts.
    """
    request = (model, reliable_twin_first, RunConfig() if config is None else config)
    return _certify(instance, [request])[0]


def _certify(instance, requests, around=nullcontext) -> list:
    """The results of ``requests``, ``(model, reliable_twin_first,
    config)`` triples on ``instance``, in order: each verdict key is
    derived once, each cache answers its keys with one read and takes
    the new rows in one write (also when a request raises: the rows
    finished before it are kept), and only the missing models are
    settled, in one :func:`_shared_searches` block.  ``around(i)`` is
    entered while request ``i`` is answered (a pool item's per-task
    span)."""
    tel = _telemetry()
    slots = [_cache_slot(instance, *request) for request in requests]
    hits: dict = {}
    for cache in dict.fromkeys(cache for cache, _ in slots if cache is not None):
        keys = [key for owner, key in slots if owner is cache]
        hits.update(zip([(cache, key) for key in keys], cache.get_many(keys, instance)))
    fresh: dict = {}
    results = []
    try:
        with _shared_searches():
            for index, ((model, twin_first, config), (cache, key)) in enumerate(
                zip(requests, slots)
            ):
                hit, implied_by, status = hits.get((cache, key)), None, "off"
                with around(index):
                    if hit is not None:
                        result, status = replace(hit, cache_hit=True), "hit"
                    else:
                        bounds = (config.queue_bound, config.max_states,
                                  config.engine, config.reduction)
                        if twin_first:
                            result, implied_by = _settle(instance, model, bounds)
                        else:
                            result = _search(instance, model, *bounds)
                        if cache is not None:
                            fresh.setdefault(cache, []).append((key, result))
                            result, status = replace(result, cache_hit=False), "miss"
                    _record_verdict(tel, result, cache=status, implied_by=implied_by)
                results.append(result)
    finally:  # what finished is stored even if a later request raised
        for cache, rows in fresh.items():
            cache.put_many(rows, instance)
    return results


def _cache_slot(instance, model, reliable_twin_first, config) -> tuple:
    """``(cache, verdict key)`` of one request, or ``(None, None)``."""
    cache = config.resolved_cache()
    if cache is None:
        return None, None
    from .cache import as_cache, verdict_key

    return as_cache(cache), verdict_key(
        instance, model.name, queue_bound=config.queue_bound,
        max_states=config.max_states, reliable_twin_first=reliable_twin_first,
        reduction=config.reduction,
    )


#: The memos of the outermost live :func:`_shared_searches` block, as
#: ``(owner pid, {search key: (instance, result)}, {layout key:
#: (instance, layout)})``; ``None`` outside one.
_SHARED: ContextVar = ContextVar("repro_shared_searches", default=None)


@contextmanager
def _shared_searches():
    """Within the block, run each search of this thread at most once,
    and lay out each instance's packed words once.

    :func:`_certify` enters this around the requests of one instance,
    in whichever process runs them, so the twin lookups of one task
    (:func:`_settle`) and the batch's own tasks for those twins share
    one search, and every packed search of the instance shares one word
    layout (:func:`_shared_layout`).  An enclosing block of this
    process is reused, not replaced.  The memos die with the outermost
    block, so a cold fan-out stays cold.  A process forked inside the
    block ignores the inherited memos (they belong to another pid).
    """
    if _live_block() is not None:
        yield
        return
    token = _SHARED.set((os.getpid(), {}, {}))
    try:
        yield
    finally:
        _SHARED.reset(token)


def _live_block():
    """This process's live :data:`_SHARED` value, else ``None``."""
    shared = _SHARED.get()
    return shared if shared is not None and shared[0] == os.getpid() else None


def _shared_layout(instance, reduction, queue_bound, build):
    """The word layout of ``instance``'s packed searches at
    ``(reduction, queue_bound)``, with its compiled automorphism group
    and orbit memo: the live block's, made by ``build(instance,
    reduction, queue_bound)`` on first use, or a private one outside any
    block.

    Sound because a search's word layout, and so each orbit, is a pure
    function of the instance, the reduction and the queue bound.  As in
    :func:`_search`, entries hold their instance and a hit is checked
    by identity; nothing is stored on the instance itself.
    """
    shared = _live_block()
    if shared is None:
        return build(instance, reduction, queue_bound)
    layouts = shared[2]
    key = (id(instance), reduction, queue_bound)
    entry = layouts.get(key)
    if entry is not None and entry[0] is instance:
        return entry[1]
    layout = build(instance, reduction, queue_bound)
    layouts[key] = (instance, layout)
    return layout


def _settle(instance, model, bounds):
    """``(result, implied_by)`` for ``model``: settled by its M twin
    (scope edge) or its R twin (reliability edge) where one applies,
    else searched — see :func:`can_oscillate` and DESIGN.md §7.4.
    Twins are settled through this same function and every search goes
    through the :func:`_search` memo, so within one fan-out each model
    is searched at most once, whatever the task order.  ``implied_by``
    names the twin whose search settled ``model``, else ``None``.
    """
    reliability, scope, count = model.reliability, model.scope, model.count
    if scope is not NeighborScope.MULTIPLE:
        twin = CommunicationModel(reliability, NeighborScope.MULTIPLE, count)
        found, _ = _settle(instance, twin, bounds)
        if found.complete and not found.oscillates:
            # complete implies truncated_states == 0 and no witness.
            return replace(found, model_name=model.name), twin.name
    if reliability is Reliability.UNRELIABLE:
        twin = CommunicationModel(Reliability.RELIABLE, scope, count)
        found, _ = _settle(instance, twin, bounds)
        if found.oscillates:
            return replace(found, model_name=model.name, complete=False), twin.name
    return _search(instance, model, *bounds), None


def _search(instance, model, queue_bound, max_states, engine, reduction):
    """``Explorer(...).explore()``, answered from the live fan-out memo
    when the same instance object was already searched the same way.
    Entries hold their instance, so its ``id`` cannot be reused while
    the memo lives, and a hit is checked by identity."""
    shared = _live_block()
    memo = None if shared is None else shared[1]
    key = (id(instance), model, queue_bound, max_states, engine, reduction)
    if memo is not None:
        entry = memo.get(key)
        if entry is not None and entry[0] is instance:
            _telemetry().count("explore.shared")
            return entry[1]
    result = Explorer(
        instance,
        model,
        queue_bound=queue_bound,
        max_states=max_states,
        engine=engine,
        reduction=reduction,
    ).explore()
    if memo is not None:
        memo[key] = (instance, result)
    return result


def _record_verdict(
    tel, result: ExplorationResult, cache: str, implied_by: "str | None" = None
) -> None:
    """Counters + one ``verdict`` event for a finished exploration."""
    if not tel.enabled:
        return
    tel.count("explore.runs")
    if implied_by is None:
        tel.count("explore.states", result.states_explored)
        tel.count("explore.states_pruned", result.states_pruned)
    else:
        # The result carries its twin's search counts; no search of
        # this model ran, so they would overstate the search work.
        tel.count("explore.implied")
    tel.event(
        "verdict",
        instance=result.instance_name,
        model=result.model_name,
        oscillates=result.oscillates,
        complete=result.complete,
        states=result.states_explored,
        pruned=result.states_pruned,
        truncated=result.truncated_states,
        cache=cache,
        implied_by=implied_by,
    )
