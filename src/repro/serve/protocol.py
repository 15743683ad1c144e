"""Wire protocol for the verdict service: request parsing and validation.

One endpoint, ``POST /v1/query``, takes a JSON object::

    {
      "v": 2,                       # envelope version; required
      "instance": {...},            # core.serialization.instance_to_dict form
      "models":   ["R1O", ...],     # optional; default: all 24 models
      "bounds":   {                 # optional; all fields optional
        "queue_bound": 3,
        "max_states": 200000,
        "reliable_twin_first": true
      },
      "config":   {                 # optional; server-safe fields only
        "engine": "packed",
        "reduction": "ample"
      }
    }

and answers::

    {
      "v": 2,
      "protocol": 2,
      "instance": "<name>",
      "canonical_hash": "<sha256>",
      "results": {"<model>": <cache-entry payload>, ...},
      "served":  {"<model>": "memory"|"disk"|"computed"|"joined", ...}
    }

Each per-model result is *exactly* the checksummed cache-entry payload
the disk store holds for that verdict (witnesses in canonical-index
space, ``cache_version``, ``checksum``), so clients decode with
:func:`repro.engine.cache.result_from_payload` against their own
instance object and get results bit-identical to a local
``can_oscillate`` call.  ``served`` records which tier answered each
model *for the request that produced the response*; a response replayed
from the serve-level hot tier is flagged by the ``X-Repro-Hot: 1``
header instead.

Request ``config`` deliberately accepts only ``engine`` and
``reduction``: cache location, worker width, and telemetry are
deployment decisions owned by the server, and neither accepted field
changes the verdict (the differential suites pin every engine to the
same oscillation verdicts, though on symmetric instances packed counts
fewer states and may finish complete within a smaller budget; the
reducer is part of the cache key).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from ..config import DEFAULT_ENGINE, DEFAULT_MAX_STATES, validate_engine
from ..core.serialization import instance_from_dict
from ..core.spp import SPPInstance

__all__ = [
    "DEADLINE_HEADER",
    "PROTOCOL_VERSION",
    "SUPPORTED_VERSIONS",
    "TRACEPARENT_HEADER",
    "TRACE_RESPONSE_HEADER",
    "ProtocolError",
    "QueryRequest",
    "UnsupportedVersion",
    "check_version",
    "envelope",
    "parse_query",
]

#: Bumped whenever the request/response JSON shape changes.  v2 added
#: the explicit ``"v"`` envelope field shared by verdict queries and
#: campaign lease brokering.
PROTOCOL_VERSION = 2

#: Versions this server parses.  Every endpoint requires ``"v"``, so a
#: version-less (v1) body is refused like an unknown version.
SUPPORTED_VERSIONS = (2,)

#: Request header carrying the client's trace context (W3C form,
#: ``00-<trace>-<span>-01``).  Optional; a missing or malformed header
#: costs the trace, never the request.
TRACEPARENT_HEADER = "traceparent"

#: Response header echoing the trace ID back to a tracing client, so
#: ``repro query`` can print the ID that ``repro trace show`` takes.
TRACE_RESPONSE_HEADER = "X-Repro-Trace"

#: Request header carrying the client's remaining time budget as
#: decimal seconds (``"12.5"``).  The server clamps its own per-request
#: deadline to the smaller of the two, so work the client has already
#: given up on is not computed to completion.  Optional; a missing or
#: malformed value costs nothing — the server deadline applies alone.
DEADLINE_HEADER = "X-Repro-Deadline"

#: Request ``config`` fields a client may set.
_CLIENT_CONFIG_FIELDS = frozenset({"engine", "reduction"})

_REDUCTIONS = ("ample", "none")


class ProtocolError(ValueError):
    """A malformed or out-of-contract query (HTTP 400)."""

    #: Machine-readable error code echoed in the JSON error body.
    code = "bad-request"


class UnsupportedVersion(ProtocolError):
    """An envelope version this server does not speak (HTTP 400).

    The error body carries ``"code": "unsupported-version"`` plus the
    versions the server does support, so old clients fail with an
    actionable message instead of a shape mismatch deeper in.
    """

    code = "unsupported-version"

    def __init__(self, version) -> None:
        super().__init__(
            f"unsupported protocol version {version!r}; this server "
            f"speaks {', '.join(str(v) for v in SUPPORTED_VERSIONS)}"
        )
        self.version = version


def check_version(body: dict) -> int:
    """Validate a request envelope's ``"v"`` field; the effective version.

    A missing ``"v"``, like anything else outside
    :data:`SUPPORTED_VERSIONS`, raises :class:`UnsupportedVersion`.
    """
    version = body.get("v")
    if (
        not isinstance(version, int)
        or isinstance(version, bool)
        or version not in SUPPORTED_VERSIONS
    ):
        raise UnsupportedVersion(version)
    return version


def envelope(payload: dict) -> dict:
    """``payload`` stamped as a v2 envelope (``"v"`` first-class field)."""
    out = {"v": PROTOCOL_VERSION}
    out.update(payload)
    return out


@dataclass(frozen=True)
class QueryRequest:
    """One parsed, validated ``/v1/query`` body."""

    instance: SPPInstance
    models: tuple
    queue_bound: int = 3
    max_states: int = DEFAULT_MAX_STATES
    reliable_twin_first: bool = True
    engine: str = DEFAULT_ENGINE
    reduction: str = "ample"

    def group_key(self, canonical: str) -> tuple:
        """The micro-batching group: requests whose cold misses can
        merge into one certification run share this key."""
        return (
            canonical,
            self.queue_bound,
            self.max_states,
            self.reliable_twin_first,
            self.engine,
            self.reduction,
        )


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ProtocolError(message)


def _parse_models(raw) -> tuple:
    from ..models.taxonomy import ALL_MODELS, MODELS_BY_NAME

    if raw is None:
        return tuple(m.name for m in ALL_MODELS)
    _require(
        isinstance(raw, list) and raw,
        "'models' must be a non-empty list of model names",
    )
    seen = []
    for name in raw:
        _require(
            isinstance(name, str) and name in MODELS_BY_NAME,
            f"unknown model {name!r}",
        )
        if name not in seen:
            seen.append(name)
    return tuple(seen)


def _parse_bounds(raw) -> dict:
    if raw is None:
        return {}
    _require(isinstance(raw, dict), "'bounds' must be a JSON object")
    unknown = sorted(set(raw) - {"queue_bound", "max_states", "reliable_twin_first"})
    _require(not unknown, f"unknown bounds field(s): {', '.join(unknown)}")
    out = {}
    if "queue_bound" in raw:
        value = raw["queue_bound"]
        _require(
            isinstance(value, int) and not isinstance(value, bool) and value >= 1,
            "'queue_bound' must be an integer >= 1",
        )
        out["queue_bound"] = value
    if "max_states" in raw:
        value = raw["max_states"]
        _require(
            isinstance(value, int) and not isinstance(value, bool) and value >= 1,
            "'max_states' must be an integer >= 1",
        )
        out["max_states"] = value
    if "reliable_twin_first" in raw:
        value = raw["reliable_twin_first"]
        _require(isinstance(value, bool), "'reliable_twin_first' must be a boolean")
        out["reliable_twin_first"] = value
    return out


def _parse_config(raw) -> dict:
    if raw is None:
        return {}
    _require(isinstance(raw, dict), "'config' must be a JSON object")
    unknown = sorted(set(raw) - _CLIENT_CONFIG_FIELDS)
    _require(
        not unknown,
        "config field(s) not accepted over the wire: " + ", ".join(unknown),
    )
    out = {}
    if "engine" in raw:
        try:
            out["engine"] = validate_engine(raw["engine"])
        except ValueError as exc:
            raise ProtocolError(str(exc)) from None
    if "reduction" in raw:
        _require(
            raw["reduction"] in _REDUCTIONS,
            f"unknown reduction {raw['reduction']!r}",
        )
        out["reduction"] = raw["reduction"]
    return out


def parse_query(body, *, default_engine: str = DEFAULT_ENGINE) -> QueryRequest:
    """Parse and validate a ``/v1/query`` body (bytes, str, or dict).

    Raises :class:`ProtocolError` on any malformed field; never returns
    a partially validated request.
    """
    if isinstance(body, (bytes, bytearray, str)):
        try:
            body = json.loads(body)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ProtocolError(f"request body is not valid JSON: {exc}") from exc
    _require(isinstance(body, dict), "request body must be a JSON object")
    unknown = sorted(set(body) - {"v", "instance", "models", "bounds", "config"})
    _require(not unknown, f"unknown request field(s): {', '.join(unknown)}")
    check_version(body)
    _require("instance" in body, "request is missing 'instance'")
    try:
        instance = instance_from_dict(body["instance"])
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ProtocolError(f"bad 'instance': {exc}") from exc
    models = _parse_models(body.get("models"))
    bounds = _parse_bounds(body.get("bounds"))
    config = _parse_config(body.get("config"))
    return QueryRequest(
        instance=instance,
        models=models,
        engine=config.get("engine", default_engine),
        reduction=config.get("reduction", "ample"),
        **bounds,
    )
