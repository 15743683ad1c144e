"""``repro.serve`` — verdict-as-a-service over the content-addressed cache.

The batch CLI answers a warm 24-model certification in ~9 ms, but every
query pays process startup, disk JSON parsing, and checksum
verification.  This package turns the verdict store into a long-running
stdlib-only HTTP/JSON daemon (``repro serve``) with a thin client
(``repro query``):

* **Hot path** — answers come from a two-tier cache: a serve-level
  response-bytes LRU (keyed by the sha256 of the raw request body) in
  front of the :class:`~repro.engine.cache.VerdictCache` payload memo,
  itself in front of the checksummed disk store.  A repeat query skips
  request parsing, disk I/O, and sha256 work entirely.
* **Singleflight** — concurrent identical cold queries coalesce onto
  one in-flight computation per verdict key; waiters share the result
  (and share the *error* if the leader dies — they never hang).
* **Micro-batching** — cold misses for the same instance across models
  merge into one matrix-certification run while queued, so per-model
  codec and reduction-table builds are paid once per instance.
* **Admission control** — a bounded batch queue sheds overload with
  429/Retry-After, every request carries a deadline, and SIGTERM
  drains in-flight work before exit.

See ``docs/serving.md`` for the wire protocol and deployment notes.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".client": [
            "QueryResponse",
            "ServeClient",
            "ServerError",
            "ServerShedding",
            "query",
        ],
        ".protocol": [
            "PROTOCOL_VERSION",
            "SUPPORTED_VERSIONS",
            "ProtocolError",
            "QueryRequest",
            "UnsupportedVersion",
            "check_version",
            "envelope",
            "parse_query",
        ],
        ".retry": [
            "BreakerOpen",
            "CircuitBreaker",
            "RetryPolicy",
            "TransientError",
            "call_with_retry",
            "parse_retry_after",
        ],
        ".server": ["ReproServer"],
        ".service": [
            "ComputeFailed",
            "DeadlineExceeded",
            "Draining",
            "ServeConfig",
            "ServeError",
            "Shed",
            "VerdictService",
        ],
    },
)

__all__ = [
    "PROTOCOL_VERSION",
    "SUPPORTED_VERSIONS",
    "BreakerOpen",
    "CircuitBreaker",
    "ComputeFailed",
    "DeadlineExceeded",
    "Draining",
    "ProtocolError",
    "QueryRequest",
    "QueryResponse",
    "ReproServer",
    "RetryPolicy",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "ServerError",
    "ServerShedding",
    "Shed",
    "TransientError",
    "UnsupportedVersion",
    "VerdictService",
    "call_with_retry",
    "check_version",
    "envelope",
    "parse_query",
    "parse_retry_after",
    "query",
]
