"""JSON-friendly serialization of activation schedules and traces.

Schedules (finite prefixes of activation sequences) are experiment
inputs worth archiving: a serialized schedule replays bit-for-bit on the
same instance, which is how the repository pins down the paper's worked
executions and any counterexample the explorer emits.

``f = ∞`` is encoded as the string ``"inf"``.
"""

from __future__ import annotations

import json
from typing import Iterable, Mapping

from .activation import INFINITY, ActivationEntry
from .execution import Trace

__all__ = [
    "entry_to_dict",
    "entry_from_dict",
    "schedule_to_json",
    "schedule_from_json",
    "trace_to_dict",
]


def _encode_count(count) -> "int | str":
    return "inf" if count == INFINITY else count


def _decode_count(raw) -> "int | float":
    if raw == "inf":
        return INFINITY
    if isinstance(raw, int) and raw >= 0:
        return raw
    raise ValueError(f"invalid message count {raw!r}")


def entry_to_dict(entry: ActivationEntry) -> dict:
    """Encode one activation entry as a JSON-able dict."""
    return {
        "nodes": sorted((str(node) for node in entry.nodes)),
        "reads": [
            [list(map(str, channel)), _encode_count(count)]
            for channel, count in sorted(
                entry.reads.items(), key=lambda item: repr(item[0])
            )
        ],
        "drops": [
            [list(map(str, channel)), sorted(dropped)]
            for channel, dropped in sorted(
                entry.drops.items(), key=lambda item: repr(item[0])
            )
            if dropped
        ],
    }


def entry_from_dict(data: Mapping) -> ActivationEntry:
    """Decode :func:`entry_to_dict` output."""
    reads = {
        tuple(channel): _decode_count(count) for channel, count in data["reads"]
    }
    drops = {
        tuple(channel): frozenset(indices)
        for channel, indices in data.get("drops", [])
    }
    return ActivationEntry(
        nodes=data["nodes"],
        channels=list(reads),
        reads=reads,
        drops=drops,
    )


def schedule_to_json(schedule: Iterable[ActivationEntry], **kwargs) -> str:
    """Encode a schedule as a JSON array."""
    kwargs.setdefault("indent", 2)
    return json.dumps([entry_to_dict(entry) for entry in schedule], **kwargs)


def schedule_from_json(text: str) -> tuple:
    """Decode :func:`schedule_to_json` output."""
    return tuple(entry_from_dict(item) for item in json.loads(text))


def trace_to_dict(trace: Trace) -> dict:
    """Summarize a trace: schedule plus the induced π-sequence.

    The π-sequence is encoded per step as ``{node: [path...]}``; replaying
    the schedule on the same instance regenerates the full trace, so
    per-step channel contents are deliberately not archived.
    """
    return {
        "instance": trace.instance.name,
        "schedule": [entry_to_dict(record.entry) for record in trace.records],
        "assignments": [
            {
                str(node): list(map(str, path))
                for node, path in state.pi.items()
            }
            for state in trace.states
        ],
    }
