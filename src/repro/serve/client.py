"""Client for the verdict service: ``repro query`` and the library API.

:class:`ServeClient` keeps one HTTP/1.1 connection alive across
queries (the server's hot path is sub-millisecond, so per-request TCP
setup would dominate); :func:`query` is the one-shot convenience.
Responses decode back into :class:`~repro.engine.explorer.ExplorationResult`
objects via :func:`repro.engine.cache.result_from_payload`, so a
client-side result — witnesses included — is bit-identical to a local
``can_oscillate`` call with the same parameters.

The transport is the shared :class:`~repro.serve.http.HttpClient`:
wire-level failures (dropped keep-alive, connection reset, timeout) are
retried with a per-endpoint circuit breaker, and every request carries
the remaining client timeout in ``X-Repro-Deadline``.  HTTP-level
rejections (429/503 shedding, 400s, 500s) are never retried here: they
surface immediately as :class:`ServerShedding` / :class:`ServerError`
so callers keep their own admission-control loops.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from ..core.serialization import instance_to_dict
from ..core.spp import SPPInstance
from ..engine.cache import result_from_payload
from ..obs import tracing
from .http import HttpClient
from .protocol import PROTOCOL_VERSION, TRACE_RESPONSE_HEADER, TRACEPARENT_HEADER
from .retry import RetryPolicy

__all__ = [
    "QueryResponse",
    "ServeClient",
    "ServerError",
    "ServerShedding",
    "query",
]


class ServerError(RuntimeError):
    """A non-2xx answer from the verdict server."""

    def __init__(self, status: int, message: str, retry_after: "float | None" = None):
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.retry_after = retry_after


class ServerShedding(ServerError):
    """HTTP 429/503 — the server asked us to back off (admission control)."""


@dataclass(frozen=True)
class QueryResponse:
    """One decoded ``/v1/query`` answer."""

    #: The raw response object (per-model cache-entry payloads).
    data: dict
    #: True when the serve-level response hot tier answered
    #: (``X-Repro-Hot`` header).
    hot: bool
    #: The request's trace ID (``repro trace show`` takes it); ``None``
    #: when the query was sent untraced.
    trace_id: "str | None" = None

    @property
    def canonical_hash(self) -> str:
        return self.data["canonical_hash"]

    @property
    def served(self) -> dict:
        return self.data["served"]

    def results(self, instance: SPPInstance) -> dict:
        """``{model name: ExplorationResult}``, verified and re-labeled
        into ``instance``'s node names (checksum and cache version are
        validated per payload; raises :class:`ValueError` on tamper)."""
        return {
            model_name: result_from_payload(payload, instance)
            for model_name, payload in self.data["results"].items()
        }


def build_query_body(
    instance: SPPInstance,
    models=None,
    *,
    queue_bound: "int | None" = None,
    max_states: "int | None" = None,
    reliable_twin_first: "bool | None" = None,
    engine: "str | None" = None,
    reduction: "str | None" = None,
) -> bytes:
    """Encode one ``/v1/query`` request body.

    Deterministic (sorted keys, fixed separators) so identical queries
    are byte-identical on the wire — that is what makes the server's
    response hot tier, keyed by the raw body hash, effective.
    """
    body: dict = {"v": PROTOCOL_VERSION, "instance": instance_to_dict(instance)}
    if models is not None:
        body["models"] = list(models)
    bounds = {}
    if queue_bound is not None:
        bounds["queue_bound"] = queue_bound
    if max_states is not None:
        bounds["max_states"] = max_states
    if reliable_twin_first is not None:
        bounds["reliable_twin_first"] = reliable_twin_first
    if bounds:
        body["bounds"] = bounds
    config = {}
    if engine is not None:
        config["engine"] = engine
    if reduction is not None:
        config["reduction"] = reduction
    if config:
        body["config"] = config
    return json.dumps(body, separators=(",", ":"), sort_keys=True).encode("utf-8")


#: Wire-level retry shape for interactive clients: a handful of quick
#: attempts, never more than ~1 s apart.
DEFAULT_RETRY_POLICY = RetryPolicy(retries=3, base_delay_s=0.05, max_delay_s=1.0)


class ServeClient(HttpClient):
    """A persistent connection to one verdict server."""

    default_policy = DEFAULT_RETRY_POLICY
    breaker_cooldown_s = 1.0
    fault_site = "serve.client.send"

    def _error(self, status: int, message: str, retry_after=None) -> ServerError:
        if status in (429, 503):
            return ServerShedding(status, message, retry_after)
        return ServerError(status, message, retry_after)

    def healthz(self) -> dict:
        data, _ = self._request("GET", "/healthz")
        return data

    def statz(self) -> dict:
        data, _ = self._request("GET", "/statz")
        return data

    def metrics_text(self) -> str:
        """``GET /metrics`` — the raw Prometheus text (``repro top``)."""
        response, raw = self._call("GET", "/metrics")
        if response.status != 200:
            raise ServerError(response.status, raw.decode("utf-8", "replace"))
        return raw.decode("utf-8")

    def query_raw(self, body: bytes, *, trace: bool = True) -> QueryResponse:
        """POST a pre-encoded body (the benchmark's zero-encode path).

        By default the request carries a freshly minted traceparent —
        the root of the query's distributed trace.  The root span is
        recorded only when this process has telemetry configured; the
        server records its side regardless, so the returned
        ``trace_id`` is always worth printing.
        """
        if not trace:
            data, headers = self._request("POST", "/v1/query", body)
            return QueryResponse(
                data=data, hot=headers.get("X-Repro-Hot") == "1"
            )
        root = tracing.TraceContext.root()
        request_headers = {TRACEPARENT_HEADER: root.to_traceparent()}
        with tracing.trace_span("client.query", context=root) as span:
            data, headers = self._request(
                "POST", "/v1/query", body, extra_headers=request_headers
            )
            hot = headers.get("X-Repro-Hot") == "1"
            span.note(hot=hot)
        return QueryResponse(
            data=data,
            hot=hot,
            trace_id=headers.get(TRACE_RESPONSE_HEADER, root.trace_id),
        )

    def query(
        self,
        instance: SPPInstance,
        models=None,
        *,
        queue_bound: "int | None" = None,
        max_states: "int | None" = None,
        reliable_twin_first: "bool | None" = None,
        engine: "str | None" = None,
        reduction: "str | None" = None,
    ) -> QueryResponse:
        body = build_query_body(
            instance,
            models,
            queue_bound=queue_bound,
            max_states=max_states,
            reliable_twin_first=reliable_twin_first,
            engine=engine,
            reduction=reduction,
        )
        return self.query_raw(body)


def query(url: str, instance: SPPInstance, models=None, **kwargs) -> QueryResponse:
    """One-shot :meth:`ServeClient.query` against ``url``."""
    timeout = kwargs.pop("timeout", 60.0)
    with ServeClient(url, timeout=timeout) as client:
        return client.query(instance, models, **kwargs)
