"""The campaign coordinator daemon: lease brokering over HTTP.

``repro campaign serve <dir>`` turns a campaign directory into a
network service so worker hosts without shared storage can cooperate.
Every endpoint is answered by a :class:`~repro.campaign.broker.ShardBroker`
over the directory's durable queue — the broker a worker joining the
directory itself also uses — so directory and URL joiners drain one
queue under one set of rules.  The coordinator holds no campaign state
that is not on disk: SIGKILL it mid-campaign, restart it, and its new
broker resumes where the queue's rows say the campaign is, with a
byte-identical final report.

The coordinator is a :class:`repro.serve.http.HttpServer`, the one
transport :class:`repro.serve.server.ReproServer` also runs on
(HTTP/1.1 keep-alive, Nagle off, shared error bodies, drain-on-SIGTERM):
this module adds only its routes, its 64 MB body limit, the campaign
trace and closing the broker.  Endpoints, all speaking the v2
envelopes (a body without ``"v": 2`` gets a 400 with
``code: unsupported-version``):

* ``GET  /healthz`` — liveness + completion flag.
* ``GET  /v2/campaign`` — bootstrap: the spec, its digest, and this
  coordinator's trace ID (one trace spans the whole campaign).
* ``POST /v2/campaign/claim`` — ``{"v": 2, "worker": id}`` → a leased
  shard (with a child ``traceparent`` so the worker's spans attach to
  the campaign trace), or ``shard: null`` when nothing is claimable.
* ``POST /v2/campaign/heartbeat`` — lease renewal.
* ``POST /v2/campaign/complete`` — the worker's records, stored
  write-once in the shard's queue row; the last one also writes
  ``report.json``.
* ``POST /v2/campaign/fail`` — a worker's compute failure on a leased
  shard: re-opened, or quarantined once enough distinct workers have
  failed it (the report is then explicitly *partial*).
* ``GET  /statz`` — campaign status + live queue snapshot.
* ``GET  /metrics`` — lease/queue counters and gauges (Prometheus text).
"""

from __future__ import annotations

import threading

from ..obs import metrics_text as _metrics_text
from ..obs import tracing
from ..serve.http import HttpServer
from ..serve.protocol import PROTOCOL_VERSION, ProtocolError, envelope
from .broker import ShardBroker
from .queue import DEFAULT_LEASE_TTL, DEFAULT_QUARANTINE_AFTER, Lease
from .runner import Campaign

__all__ = ["CampaignCoordinator", "DEFAULT_PORT"]

#: Default coordinator port (verdict serving defaults to 8642 next door).
DEFAULT_PORT = 8643


class CampaignCoordinator(HttpServer):
    """One campaign directory served as a lease-brokering daemon."""

    max_body = 64 * 1024 * 1024  # a completed shard's records
    server_version = "repro-campaign"

    def __init__(
        self,
        campaign: Campaign,
        *,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        quarantine_after: int = DEFAULT_QUARANTINE_AFTER,
    ) -> None:
        self.campaign = campaign
        self.broker = ShardBroker(
            campaign, lease_ttl=lease_ttl, quarantine_after=quarantine_after
        )
        self.queue = self.broker.queue
        # One trace for the whole campaign: worker shard spans become
        # children of this root, so `repro trace show` reconstructs the
        # cross-host shard tree from any participant's telemetry.
        self.trace = tracing.current() or tracing.TraceContext.root()
        routes = {
            ("GET", "/healthz"): lambda request: {
                "status": "ok",
                "v": PROTOCOL_VERSION,
                "complete": self.complete,
            },
            ("GET", "/v2/campaign"): lambda request: envelope(self.describe()),
            ("GET", "/statz"): lambda request: envelope(self.statz()),
            ("GET", "/metrics"): lambda request: self.metrics_text(),
        }
        for name in ("claim", "heartbeat", "complete", "fail"):
            routes["POST", f"/v2/campaign/{name}"] = self._v2_route(f"handle_{name}")
        super().__init__(host, port, routes)

    def _v2_route(self, method: str):
        # The handler is looked up per request, so a method patched on
        # the class after boot still serves.
        return lambda request: envelope(
            getattr(self, method)(request.json())
        )

    @property
    def complete(self) -> bool:
        return self.broker.complete

    # -- endpoint bodies -------------------------------------------------
    def describe(self) -> dict:
        """The ``GET /v2/campaign`` bootstrap payload."""
        return {
            "spec": self.campaign.spec.as_dict(),
            "digest": self.campaign.digest,
            "lease_ttl": self.queue.lease_ttl,
            "quarantine_after": self.queue.quarantine_after,
            "trace": self.trace.trace_id,
            "complete": self.complete,
        }

    def handle_claim(self, body: dict) -> dict:
        worker = body.get("worker")
        if not isinstance(worker, str) or not worker:
            raise ProtocolError("'worker' must be a non-empty string")
        lease = self.broker.claim(worker)
        if lease is None:
            return {"shard": None, "complete": self.complete}
        return {
            "shard": lease.shard,
            "token": lease.token,
            "expires_s": round(lease.remaining(), 3),
            "traceparent": self.trace.child().to_traceparent(),
            "complete": False,
        }

    def handle_heartbeat(self, body: dict) -> dict:
        renewed = self.broker.heartbeat(self._lease_from(body))
        if renewed is None:
            return {"ok": False}
        return {"ok": True, "expires_s": round(renewed.remaining(), 3)}

    def handle_complete(self, body: dict) -> dict:
        lease = self._lease_from(body)
        records = body.get("records")
        if not isinstance(records, list):
            raise ProtocolError("'records' must be a list")
        owned = self.broker.complete_shard(lease, records)
        return {"ok": True, "owned": owned, "complete": self.complete}

    def handle_fail(self, body: dict) -> dict:
        outcome = self.broker.fail(self._lease_from(body), body.get("error", ""))
        return {"ok": outcome != "lost", "outcome": outcome, "complete": self.complete}

    def _lease_from(self, body: dict) -> Lease:
        shard = body.get("shard")
        token = body.get("token")
        if not isinstance(shard, int) or isinstance(shard, bool):
            raise ProtocolError("'shard' must be an integer")
        if not isinstance(token, str) or not token:
            raise ProtocolError("'token' must be a non-empty string")
        return Lease(
            shard=shard, worker=str(body.get("worker", "?")), token=token, expires=0.0
        )

    def statz(self) -> dict:
        return {
            "campaign": self.campaign.status(),
            "queue": self.queue.snapshot(),
            "trace": self.trace.trace_id,
            "complete": self.complete,
        }

    def metrics_text(self) -> str:
        """Lease counters + queue gauges in Prometheus text form."""
        snapshot = self.queue.snapshot()  # refreshes campaign.queue.* gauges
        return _metrics_text(
            gauges={
                "campaign.queue.depth": snapshot["open"],
                "campaign.queue.leased": snapshot["leased"],
                "campaign.queue.done": snapshot["done"],
                "campaign.shards_quarantined": snapshot.get("quarantined", 0),
                "campaign.complete": int(self.complete),
            }
        )

    # -- lifecycle ---------------------------------------------------------
    def _on_close(self) -> None:
        self.broker.close()

    def wait_complete(self, timeout: "float | None" = None) -> bool:
        return self.broker.wait_complete(timeout)

    def serve_forever(
        self, install_signals: bool = True, until_complete: bool = False
    ) -> None:
        """Run until SIGTERM/SIGINT — or, with ``until_complete``, until
        the campaign report lands (the CI smoke mode)."""
        if until_complete:

            def _watch():
                self.broker.wait_complete()
                self.stop()

            threading.Thread(target=_watch, daemon=True).start()
        super().serve_forever(install_signals)
