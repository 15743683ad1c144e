"""HTTP transport for :class:`~repro.serve.service.VerdictService`.

A :class:`~repro.serve.http.HttpServer` (HTTP/1.1 keep-alive matters:
the hot-hit latency target is sub-millisecond, which a per-request TCP
handshake would dominate).  Endpoints:

* ``POST /v1/query`` — the verdict query (see :mod:`repro.serve.protocol`).
  A ``traceparent`` request header joins the request to the client's
  trace (spans land in the server's telemetry stream); the trace ID is
  echoed back in ``X-Repro-Trace``.
* ``GET /healthz`` — liveness: ``{"status": "ok"|"draining"}``.
* ``GET /statz`` — live service/cache/queue counters.
* ``GET /metrics`` — Prometheus text: counters, queue gauges, and the
  latency histograms (``repro top`` and any scraper consume this).

Error mapping (shared, see :mod:`repro.serve.http`):
:class:`~repro.serve.protocol.ProtocolError` → 400,
:class:`~repro.serve.service.Shed` → 429 with ``Retry-After``,
:class:`~repro.serve.service.Draining` → 503 with ``Retry-After``,
:class:`~repro.serve.service.DeadlineExceeded` → 504, anything else
→ 500.

Shutdown: SIGTERM/SIGINT or :meth:`close` flip the service to draining
(new queries get 503), stop the accept loop, wait for every admitted
request, then stop the service's workers.
"""

from __future__ import annotations

from ..obs import tracing
from .http import HttpServer, Reply
from .protocol import DEADLINE_HEADER, TRACE_RESPONSE_HEADER, TRACEPARENT_HEADER
from .service import VerdictService

__all__ = ["ReproServer"]


class ReproServer(HttpServer):
    """A :class:`VerdictService` bound to an HTTP listener."""

    #: A full 24-model query over the paper's gadgets is a few KB, so
    #: this is generous headroom, not a functional limit.
    max_body = 8 * 1024 * 1024
    server_version = "repro-serve"

    def __init__(self, service: VerdictService) -> None:
        self.service = service
        super().__init__(
            service.config.host,
            service.config.port,
            {
                ("GET", "/healthz"): lambda request: {
                    "status": "draining" if service.draining else "ok"
                },
                ("GET", "/statz"): lambda request: service.statz(),
                ("GET", "/metrics"): lambda request: service.metrics_text(),
                ("POST", "/v1/query"): self._query,
            },
        )

    def _query(self, request) -> Reply:
        # A client-sent traceparent becomes this handler thread's
        # current context, so the service's serve.* spans chain under
        # the client's span; a malformed or absent header leaves the
        # request untraced (context None) at no cost to the query.
        context = tracing.TraceContext.from_traceparent(
            request.headers.get(TRACEPARENT_HEADER)
        )
        # A client-declared time budget clamps the server's own
        # deadline; malformed or non-positive values are ignored (the
        # header is advisory — it can only tighten, never extend).
        try:
            deadline_s = float(request.headers.get(DEADLINE_HEADER, ""))
        except ValueError:
            deadline_s = None
        if deadline_s is not None and not deadline_s > 0:  # NaN too
            deadline_s = None
        with tracing.use(context):
            body, hot = self.service.handle_query(request.body, deadline_s=deadline_s)
        headers = [("X-Repro-Hot", "1")] if hot else []
        if context:
            headers.append((TRACE_RESPONSE_HEADER, context.trace_id))
        return Reply(body, headers)

    def _on_drain(self) -> None:
        self.service.drain()

    def _on_close(self) -> None:
        self.service.close()
