"""Activation-sequence entries — the quadruples (U, X, f, g) of Def. 2.2.

An :class:`ActivationEntry` records, for one step of the algorithm:

* ``U`` — the set of nodes updating this step;
* ``X`` — the set of channels processed (each channel's receiving end
  must be in ``U``);
* ``f`` — per channel, how many messages to process (a non-negative
  integer or :data:`INFINITY` for "all");
* ``g`` — per channel, the 1-based indices of processed messages that
  the channel *drops* (only ever non-empty on unreliable channels).

Entries are immutable and hashable, so schedules, traces, and the
bounded model checker can treat them as values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from ..core.paths import Node
from ..core.spp import Channel, SPPInstance

__all__ = ["INFINITY", "ActivationEntry", "Schedule"]

#: The f(c) = ∞ sentinel ("process every message in the channel").
INFINITY = float("inf")


@dataclass(frozen=True)
class ActivationEntry:
    """One step's quadruple ``(U, X, f, g)``, validated per Def. 2.2."""

    nodes: frozenset
    channels: frozenset
    _reads: tuple
    _drops: tuple

    def __init__(
        self,
        nodes: Iterable[Node],
        channels: Iterable[Channel] = (),
        reads: Mapping | None = None,
        drops: Mapping | None = None,
    ) -> None:
        node_set = frozenset(nodes)
        channel_set = frozenset(tuple(c) for c in channels)
        read_map = {tuple(c): f for c, f in (reads or {}).items()}
        drop_map = {
            tuple(c): frozenset(g) for c, g in (drops or {}).items() if g
        }
        for channel in channel_set:
            read_map.setdefault(channel, 1)
        self._validate(node_set, channel_set, read_map, drop_map)
        object.__setattr__(self, "nodes", node_set)
        object.__setattr__(self, "channels", channel_set)
        object.__setattr__(
            self,
            "_reads",
            tuple(sorted(read_map.items(), key=lambda item: repr(item[0]))),
        )
        object.__setattr__(
            self,
            "_drops",
            tuple(
                sorted(
                    ((c, tuple(sorted(g))) for c, g in drop_map.items()),
                    key=lambda item: repr(item[0]),
                )
            ),
        )
        # Hoisted canonical orders: the engine consumes these on every
        # applied step, so they are computed once here instead of being
        # re-sorted per step (``_reads`` is already repr-sorted by
        # channel, which makes the channel order free).
        object.__setattr__(
            self, "_sorted_nodes", tuple(sorted(node_set, key=repr))
        )
        object.__setattr__(
            self, "_sorted_channels", tuple(c for c, _ in self._reads)
        )

    @staticmethod
    def _validate(nodes, channels, reads, drops) -> None:
        if not nodes:
            raise ValueError("an activation entry must update at least one node")
        for channel in channels:
            if len(channel) != 2:
                raise ValueError(f"malformed channel {channel!r}")
            if channel[1] not in nodes:
                raise ValueError(
                    f"channel {channel!r} is processed but its receiver is "
                    f"not among the updating nodes {sorted(map(repr, nodes))}"
                )
        if set(reads) != set(channels):
            raise ValueError("f must be defined exactly on the processed channels")
        for channel, f in reads.items():
            if f == INFINITY:
                continue
            if not isinstance(f, int) or f < 0:
                raise ValueError(f"f({channel!r}) = {f!r} is not in ℤ≥0 ∪ {{∞}}")
        for channel, g in drops.items():
            if channel not in channels:
                raise ValueError(f"drop set given for unprocessed channel {channel!r}")
            if any((not isinstance(i, int)) or i < 1 for i in g):
                raise ValueError(f"drop indices must be positive integers: {g!r}")
            f = reads[channel]
            if f == 0 and g:
                raise ValueError("g(c) must be empty when f(c) = 0")
            if f != INFINITY and any(i > f for i in g):
                raise ValueError(
                    f"drop indices {sorted(g)} exceed f({channel!r}) = {f}"
                )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def reads(self) -> dict:
        """The function f: channel → count (``INFINITY`` means all)."""
        return dict(self._reads)

    @property
    def drops(self) -> dict:
        """The function g: channel → frozenset of dropped indices."""
        return {c: frozenset(g) for c, g in self._drops}

    @property
    def sorted_nodes(self) -> tuple:
        """The updating nodes in the canonical (repr-sorted) step order."""
        return self._sorted_nodes

    @property
    def sorted_channels(self) -> tuple:
        """The processed channels in the canonical (repr-sorted) order."""
        return self._sorted_channels

    def read_count(self, channel: Channel) -> "int | float":
        return dict(self._reads)[tuple(channel)]

    def drop_set(self, channel: Channel) -> frozenset:
        return self.drops.get(tuple(channel), frozenset())

    @property
    def node(self) -> Node:
        """The single updating node (for one-node-per-step models)."""
        if len(self.nodes) != 1:
            raise ValueError("entry updates more than one node")
        return next(iter(self.nodes))

    def channels_of(self, node: Node) -> tuple:
        """The processed channels whose receiver is ``node``."""
        return tuple(
            sorted((c for c in self.channels if c[1] == node), key=repr)
        )

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------
    @classmethod
    def single(
        cls,
        node: Node,
        channel: Channel | None = None,
        count: "int | float" = 1,
        drop: Iterable[int] = (),
    ) -> "ActivationEntry":
        """One node processing one channel (or none, if ``channel=None``)."""
        if channel is None:
            return cls(nodes=[node])
        channel = tuple(channel)
        return cls(
            nodes=[node],
            channels=[channel],
            reads={channel: count},
            drops={channel: frozenset(drop)} if drop else None,
        )

    @classmethod
    def poll_all(cls, instance: SPPInstance, node: Node) -> "ActivationEntry":
        """The REA entry: read every message from every channel of ``node``."""
        channels = instance.in_channels(node)
        return cls(
            nodes=[node],
            channels=channels,
            reads={c: INFINITY for c in channels},
        )

    @classmethod
    def read_one_each(cls, instance: SPPInstance, node: Node) -> "ActivationEntry":
        """The REO entry: read one message from every channel of ``node``."""
        channels = instance.in_channels(node)
        return cls(nodes=[node], channels=channels, reads={c: 1 for c in channels})

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = []
        for channel, f in self._reads:
            dropped = dict(self._drops).get(channel)
            suffix = f" drop{list(dropped)}" if dropped else ""
            count = "∞" if f == INFINITY else f
            parts.append(f"{channel}:{count}{suffix}")
        return f"ActivationEntry(U={sorted(map(str, self.nodes))}, {', '.join(parts)})"


#: A finite prefix of an activation sequence.
Schedule = tuple
