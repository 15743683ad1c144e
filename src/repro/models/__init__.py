"""The communication-model taxonomy of Sec. 2.2–2.3."""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".constraints": ["entry_violations", "is_legal_entry", "require_legal_entry"],
        ".dimensions": [
            "MessageCount",
            "NeighborScope",
            "NodeConcurrency",
            "Reliability",
        ],
        ".taxonomy": [
            "ALL_MODELS",
            "MESSAGE_PASSING_MODELS",
            "MODELS_BY_NAME",
            "POLLING_MODELS",
            "QUEUEING_MODELS",
            "RELIABLE_MODELS",
            "UNRELIABLE_MODELS",
            "CommunicationModel",
            "model",
            "parse_model",
        ],
    },
)

__all__ = [
    "ALL_MODELS",
    "MESSAGE_PASSING_MODELS",
    "MODELS_BY_NAME",
    "POLLING_MODELS",
    "QUEUEING_MODELS",
    "RELIABLE_MODELS",
    "UNRELIABLE_MODELS",
    "CommunicationModel",
    "MessageCount",
    "NeighborScope",
    "NodeConcurrency",
    "Reliability",
    "entry_violations",
    "is_legal_entry",
    "model",
    "parse_model",
    "require_legal_entry",
]
