"""Fair-by-construction schedulers for every model in the taxonomy.

Fairness (Def. 2.4) is a property of infinite activation sequences:
every node tries to read each of its channels infinitely often, and
every dropped message is eventually followed by a delivered one.  The
schedulers here emit finite prefixes of sequences that are fair by
construction:

* :class:`RoundRobinScheduler` — deterministic: cycles through nodes,
  and (for 1-scope models) through each node's channels; services every
  channel every ``O(|V| · maxdeg)`` steps.
* :class:`RandomScheduler` — randomized, but with a *service guarantee*:
  it tracks how long each channel has gone unserviced and forcibly
  schedules any channel whose age exceeds ``fairness_window``.  Drops
  (in U models) are Bernoulli per processed message, never repeated
  forever on a channel with pending traffic.

Every emitted entry is validated against the model's constraints.
"""

from __future__ import annotations

import random
from typing import Iterator

from ..core.spp import Channel, SPPInstance
from ..models.constraints import require_legal_entry
from ..models.dimensions import MessageCount, NeighborScope, Reliability
from ..models.taxonomy import CommunicationModel
from .activation import INFINITY, ActivationEntry
from .state import NetworkState

__all__ = ["Scheduler", "RoundRobinScheduler", "RandomScheduler"]


class Scheduler:
    """Base class: produces a stream of model-legal activation entries."""

    def __init__(self, instance: SPPInstance, model: CommunicationModel) -> None:
        self.instance = instance
        self.model = model
        self._nodes = sorted(instance.nodes, key=repr)

    def next_entry(self, state: NetworkState) -> ActivationEntry:
        raise NotImplementedError

    def entries(self, execution_state_supplier, limit: int) -> Iterator[ActivationEntry]:
        """Yield up to ``limit`` entries against live state."""
        for _ in range(limit):
            yield self.next_entry(execution_state_supplier())

    # ------------------------------------------------------------------
    # Shared helpers
    # ------------------------------------------------------------------
    def _count_for(self, rng: "random.Random | None", state, channel) -> "int | float":
        """Choose f(c) legal for the model's message-count dimension."""
        kind = self.model.count
        if kind is MessageCount.ONE:
            return 1
        if kind is MessageCount.ALL:
            return INFINITY
        pending = state.message_count(channel)
        if kind is MessageCount.FORCED:
            if rng is None:
                return INFINITY
            return rng.choice([1, max(1, pending), INFINITY])
        # SOME: unrestricted.
        if rng is None:
            return INFINITY
        return rng.choice([0, 1, max(1, pending), INFINITY])

    def _build_entry(
        self,
        node,
        channels: tuple,
        state: NetworkState,
        rng: "random.Random | None",
        drop_prob: float = 0.0,
        no_drop: frozenset = frozenset(),
    ) -> ActivationEntry:
        reads = {}
        drops = {}
        for channel in channels:
            count = self._count_for(rng, state, channel)
            reads[channel] = count
            if (
                self.model.reliability is Reliability.UNRELIABLE
                and rng is not None
                and drop_prob > 0
                and channel not in no_drop
            ):
                pending = state.message_count(channel)
                effective = pending if count == INFINITY else min(count, pending)
                # Fairness (Def. 2.4): a dropped message needs a *later*
                # non-dropped message on the same channel.  The sender
                # may never speak again (the destination announces only
                # once), so only messages with a successor already in
                # the channel are ever dropped — the channel's current
                # last message is always deliverable.
                droppable = effective if effective < pending else effective - 1
                dropped = frozenset(
                    index
                    for index in range(1, droppable + 1)
                    if rng.random() < drop_prob
                )
                if dropped:
                    drops[channel] = dropped
        entry = ActivationEntry(
            nodes=[node], channels=channels, reads=reads, drops=drops
        )
        require_legal_entry(self.model, self.instance, entry)
        return entry


class RoundRobinScheduler(Scheduler):
    """Deterministic fair scheduler.

    For E and M scope the node's full channel set is processed each
    activation (for M this is one legal choice); for scope 1 the node's
    channels are themselves cycled, so channel ``c`` of node ``v`` is
    processed every ``|V| · deg(v)`` steps.  Message counts use the
    model's most thorough legal option (∞ where allowed, else 1) and
    channels are never dropped, making the infinite extension trivially
    fair even for U models.
    """

    def __init__(self, instance: SPPInstance, model: CommunicationModel) -> None:
        super().__init__(instance, model)
        self._node_index = 0
        self._channel_index = {node: 0 for node in self._nodes}

    def next_entry(self, state: NetworkState) -> ActivationEntry:
        node = self._nodes[self._node_index]
        self._node_index = (self._node_index + 1) % len(self._nodes)
        in_channels = self.instance.in_channels(node)
        if not in_channels:
            # A node with no channels can only appear for the destination
            # of a star graph; activate it with no channels (M scope) or
            # skip to the next node for scopes that need a channel.
            if self.model.scope is NeighborScope.MULTIPLE:
                return ActivationEntry(nodes=[node])
            return self.next_entry(state)
        if self.model.scope is NeighborScope.ONE:
            index = self._channel_index[node]
            self._channel_index[node] = (index + 1) % len(in_channels)
            channels = (in_channels[index],)
        else:
            channels = in_channels
        return self._build_entry(node, channels, state, rng=None)


class RandomScheduler(Scheduler):
    """Randomized fair scheduler with an explicit service guarantee."""

    def __init__(
        self,
        instance: SPPInstance,
        model: CommunicationModel,
        seed: int = 0,
        fairness_window: int | None = None,
        drop_prob: float = 0.2,
    ) -> None:
        super().__init__(instance, model)
        self._rng = random.Random(seed)
        self._drop_prob = drop_prob
        channel_count = len(instance.channels)
        self._window = fairness_window or max(4 * channel_count, 16)
        self._age = {channel: 0 for channel in instance.channels}
        self._consecutive_drops = {channel: 0 for channel in instance.channels}

    def _overdue_channel(self) -> "Channel | None":
        overdue = [c for c, age in self._age.items() if age >= self._window]
        if not overdue:
            return None
        return max(overdue, key=lambda c: (self._age[c], repr(c)))

    def next_entry(self, state: NetworkState) -> ActivationEntry:
        forced = self._overdue_channel()
        if forced is not None:
            node = forced[1]
        else:
            node = self._rng.choice(self._nodes)
        in_channels = self.instance.in_channels(node)

        scope = self.model.scope
        if not in_channels and scope is NeighborScope.MULTIPLE:
            channels: tuple = ()
        elif not in_channels:
            # Can't activate an isolated node in 1/E scope; pick another.
            candidates = [n for n in self._nodes if self.instance.in_channels(n)]
            node = self._rng.choice(candidates)
            in_channels = self.instance.in_channels(node)
            channels = self._pick_channels(scope, in_channels, forced=None)
        else:
            channels = self._pick_channels(
                scope, in_channels, forced if forced in in_channels else None
            )

        # A channel stuck behind repeated drops must eventually deliver.
        no_drop = frozenset(
            channel
            for channel in channels
            if self._consecutive_drops[channel] >= 2
        )
        entry = self._build_entry(
            node,
            channels,
            state,
            rng=self._rng,
            drop_prob=self._drop_prob,
            no_drop=no_drop,
        )
        self._bookkeep(entry, state)
        return entry

    def _pick_channels(self, scope, in_channels, forced) -> tuple:
        if scope is NeighborScope.EVERY:
            return tuple(in_channels)
        if scope is NeighborScope.ONE:
            return (forced,) if forced else (self._rng.choice(in_channels),)
        chosen = {
            channel for channel in in_channels if self._rng.random() < 0.5
        }
        if forced:
            chosen.add(forced)
        return tuple(sorted(chosen, key=repr))

    def _bookkeep(self, entry: ActivationEntry, state: NetworkState) -> None:
        for channel in self._age:
            self._age[channel] += 1
        for channel, count in entry.reads.items():
            if count == 0:
                continue
            self._age[channel] = 0
            pending = state.message_count(channel)
            effective = pending if count == INFINITY else min(count, pending)
            dropped = entry.drop_set(channel)
            if effective and len(dropped) >= effective:
                self._consecutive_drops[channel] += 1
            elif effective:
                self._consecutive_drops[channel] = 0
