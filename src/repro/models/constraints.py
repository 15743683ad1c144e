"""Per-model legality of activation entries.

Each communication model is a restricted class of activation sequences
(Sec. 2.2).  This module decides whether a concrete
:class:`~repro.engine.activation.ActivationEntry` is legal for a given
model on a given instance, and explains violations — the engine and the
schedulers use it as the single source of truth.
"""

from __future__ import annotations

from ..core.spp import SPPInstance
from ..engine.activation import INFINITY, ActivationEntry
from .dimensions import MessageCount, NeighborScope, NodeConcurrency, Reliability
from .taxonomy import CommunicationModel

__all__ = ["entry_violations", "is_legal_entry", "require_legal_entry"]


def entry_violations(
    model: CommunicationModel,
    instance: SPPInstance,
    entry: ActivationEntry,
) -> list:
    """Return a list of human-readable constraint violations (empty = legal)."""
    violations: list = []
    _check_concurrency(model, instance, entry, violations)
    for node in entry.nodes:
        _check_scope(model, instance, entry, node, violations)
    for channel, count in entry.reads.items():
        _check_count(model, channel, count, violations)
    if model.reliability is Reliability.RELIABLE:
        for channel, dropped in entry.drops.items():
            if dropped:
                violations.append(
                    f"reliable model {model} cannot drop messages on {channel!r}"
                )
    return violations


def _check_concurrency(model, instance, entry, violations) -> None:
    if model.concurrency is NodeConcurrency.ONE and len(entry.nodes) != 1:
        violations.append(
            f"model {model} activates exactly one node per step, got "
            f"{len(entry.nodes)}"
        )
    elif model.concurrency is NodeConcurrency.EVERY and entry.nodes != instance.nodes:
        violations.append(f"model {model} requires every node to update each step")


def _check_scope(model, instance, entry, node, violations) -> None:
    processed = entry.channels_of(node)
    in_channels = instance.in_channels(node)
    unknown = set(processed) - set(in_channels)
    if unknown:
        violations.append(f"{node!r} processes non-incident channels {unknown}")
    if model.scope is NeighborScope.ONE and len(processed) != 1:
        violations.append(
            f"model {model}: node {node!r} must process exactly one channel, "
            f"got {len(processed)}"
        )
    elif model.scope is NeighborScope.EVERY and set(processed) != set(in_channels):
        violations.append(
            f"model {model}: node {node!r} must process all of its "
            f"{len(in_channels)} channels, got {len(processed)}"
        )


def _check_count(model, channel, count, violations) -> None:
    kind = model.count
    if kind is MessageCount.ONE and count != 1:
        violations.append(f"model {model}: f({channel!r}) must be 1, got {count}")
    elif kind is MessageCount.ALL and count != INFINITY:
        violations.append(f"model {model}: f({channel!r}) must be ∞, got {count}")
    elif kind is MessageCount.FORCED and (count != INFINITY and count < 1):
        violations.append(f"model {model}: f({channel!r}) must be ≥ 1, got {count}")
    # MessageCount.SOME: unrestricted.


def is_legal_entry(
    model: CommunicationModel,
    instance: SPPInstance,
    entry: ActivationEntry,
) -> bool:
    """True iff ``entry`` is a legal step under ``model``."""
    return not entry_violations(model, instance, entry)


def require_legal_entry(
    model: CommunicationModel,
    instance: SPPInstance,
    entry: ActivationEntry,
) -> None:
    """Raise ``ValueError`` with every violation if the entry is illegal."""
    violations = entry_violations(model, instance, entry)
    if violations:
        raise ValueError(
            f"illegal activation entry for {model}: " + "; ".join(violations)
        )
