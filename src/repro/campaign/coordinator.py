"""The campaign coordinator daemon: lease brokering over HTTP.

``repro campaign serve <dir>`` turns a campaign directory into a
network service so worker hosts without shared storage can cooperate.
The coordinator owns the authoritative on-disk :class:`WorkQueue`
*inside the campaign directory* — workers joining by path and workers
joining by URL therefore drain one queue, and killing the coordinator
loses nothing (the queue and every checkpoint are durable; restart and
the campaign continues).

The coordinator is a :class:`repro.serve.http.HttpServer`, the one
transport :class:`repro.serve.server.ReproServer` also runs on
(HTTP/1.1 keep-alive, Nagle off, shared error bodies, drain-on-SIGTERM):
this module adds only its routes, its 64 MB body limit and closing the
queue.  It speaks the v2 protocol envelopes and the same ``/metrics``
Prometheus exposition the dashboard scrapes.  Endpoints:

* ``GET  /healthz`` — liveness + completion flag.
* ``GET  /v2/campaign`` — bootstrap: the spec, its digest, and this
  coordinator's trace ID (one trace spans the whole campaign).
* ``POST /v2/campaign/claim`` — ``{"v": 2, "worker": id}`` → a leased
  shard (with a child ``traceparent`` so the worker's spans attach to
  the campaign trace), or ``shard: null`` when nothing is claimable.
* ``POST /v2/campaign/heartbeat`` — lease renewal.
* ``POST /v2/campaign/complete`` — the worker's records; the
  coordinator validates and writes the shard checkpoint through the
  write-once store, and writes ``report.json`` when the last shard
  lands.
* ``POST /v2/campaign/fail`` — a worker's compute failure on a leased
  shard.  The queue re-opens the shard, or quarantines it once enough
  distinct workers have failed it; a campaign whose only remaining
  shards are quarantined completes with an explicitly *partial* report.

**Crash recovery.**  The coordinator holds no campaign state that is
not on disk: on boot it re-attaches to the durable queue, completes
queue rows whose checkpoints already landed, and re-opens queue rows
marked done whose checkpoint is missing or invalid.  SIGKILLing a
coordinator mid-campaign and restarting it therefore resumes brokering
exactly where the disk says the campaign is — and the final report is
byte-identical to an uninterrupted run.
* ``GET  /statz`` — campaign status + live queue snapshot.
* ``GET  /metrics`` — lease/queue counters and gauges.

Like every endpoint of the shared transport, the campaign endpoints
require ``"v": 2`` (:func:`repro.serve.protocol.check_version`); a
body without it gets a 400 with ``code: unsupported-version``.
"""

from __future__ import annotations

import threading

from ..obs import active as _telemetry
from ..obs import metrics as _metrics
from ..obs import tracing
from ..serve.http import HttpServer
from ..serve.protocol import PROTOCOL_VERSION, ProtocolError, envelope
from .queue import DEFAULT_LEASE_TTL, DEFAULT_QUARANTINE_AFTER, Lease, WorkQueue
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
        self.queue = WorkQueue(
            campaign.paths.queue_db_path,
            campaign.digest,
            lease_ttl=lease_ttl,
            quarantine_after=quarantine_after,
        )
        done = campaign.completed_shards()
        self.queue.enroll(range(campaign.spec.n_shards), done=done)
        # Boot reconciliation, the other direction: queue rows marked
        # done whose checkpoint is missing or invalid on disk (a crash
        # between checkpoint loss and queue state, or manual cleanup)
        # go back to open so the work actually happens again.
        stale = sorted(set(self.queue.done_shards()) - set(done))
        if stale:
            self.queue.reset(stale)
            _telemetry().count("campaign.queue.reconciled", len(stale))
        # One trace for the whole campaign: worker shard spans become
        # children of this root, so `repro trace show` reconstructs the
        # cross-host shard tree from any participant's telemetry.
        self.trace = tracing.current() or tracing.TraceContext.root()
        self._lock = threading.Lock()
        self._report_written = campaign.paths.report_path.is_file()
        self._complete_event = threading.Event()
        if not self._unresolved_shards():
            self._complete_event.set()
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
        return self._complete_event.is_set()

    # -- endpoint bodies -------------------------------------------------
    def _unresolved_shards(self) -> list:
        """Pending shards that could still resolve: not checkpointed and
        not quarantined.  Empty means the campaign is as done as it can
        get — fully, or partially with quarantined poison."""
        quarantined = set(self.queue.quarantined())
        return [
            shard
            for shard in self.campaign.pending_shards()
            if shard not in quarantined
        ]

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
        lease = self.queue.claim(worker)
        if lease is None:
            self._maybe_finish()
            return {"shard": None, "complete": self.complete}
        # Already-checkpointed shards (e.g. enrolled before a restart
        # with a stale queue) complete instantly without recompute.
        if self.campaign._shard_records(lease.shard) is not None:
            self.queue.complete(lease)
            self._maybe_finish()
            return {"shard": None, "complete": self.complete}
        return {
            "shard": lease.shard,
            "token": lease.token,
            "expires_s": round(lease.remaining(), 3),
            "traceparent": self.trace.child().to_traceparent(),
            "complete": False,
        }

    def handle_heartbeat(self, body: dict) -> dict:
        lease = self._lease_from(body)
        renewed = self.queue.heartbeat(lease)
        if renewed is None:
            return {"ok": False}
        return {"ok": True, "expires_s": round(renewed.remaining(), 3)}

    def handle_complete(self, body: dict) -> dict:
        lease = self._lease_from(body)
        records = body.get("records")
        if not isinstance(records, list):
            raise ProtocolError("'records' must be a list")
        # Validate + write through the write-once store first; only a
        # durable checkpoint marks the queue row done.
        with self._lock:
            if self.campaign._shard_records(lease.shard) is None:
                self.campaign.write_shard_checkpoint(lease.shard, records)
        owned = self.queue.complete(lease)
        self._maybe_finish()
        return {"ok": True, "owned": owned, "complete": self.complete}

    def handle_fail(self, body: dict) -> dict:
        lease = self._lease_from(body)
        outcome = self.queue.fail(lease)
        _telemetry().event(
            "campaign.shard.fail",
            shard=lease.shard,
            worker=lease.worker,
            outcome=outcome,
            error=str(body.get("error", ""))[:500],
        )
        if outcome == "quarantined":
            self._maybe_finish()
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

    def _maybe_finish(self) -> None:
        with self._lock:
            if self._report_written:
                self._complete_event.set()
                return
            if self._unresolved_shards():
                return
            quarantined = self.queue.quarantined()
            self.campaign.write_report(quarantined=quarantined)
            self._report_written = True
            self._complete_event.set()
            _telemetry().count("campaign.report.written")
            if quarantined:
                _telemetry().count("campaign.report.partial")

    def statz(self) -> dict:
        return {
            "campaign": self.campaign.status(),
            "queue": self.queue.snapshot(),
            "trace": self.trace.trace_id,
            "complete": self.complete,
        }

    def metrics_text(self) -> str:
        """Lease counters + queue gauges in Prometheus text form."""
        tel = _telemetry()
        counters = dict(getattr(tel, "counters", None) or {})
        gauges = dict(getattr(tel, "gauges", None) or {})
        snapshot = self.queue.snapshot()  # refreshes campaign.queue.* gauges
        gauges["campaign.queue.depth"] = snapshot["open"]
        gauges["campaign.queue.leased"] = snapshot["leased"]
        gauges["campaign.queue.done"] = snapshot["done"]
        gauges["campaign.shards_quarantined"] = snapshot.get("quarantined", 0)
        gauges["campaign.complete"] = int(self.complete)
        registry = getattr(tel, "metrics", None) or _metrics.registry()
        return _metrics.render_prometheus(
            metrics=registry, counters=counters, gauges=gauges
        )

    # -- lifecycle ---------------------------------------------------------
    def _on_close(self) -> None:
        self.queue.close()

    def wait_complete(self, timeout: "float | None" = None) -> bool:
        return self._complete_event.wait(timeout)

    def serve_forever(
        self, install_signals: bool = True, until_complete: bool = False
    ) -> None:
        """Run until SIGTERM/SIGINT — or, with ``until_complete``, until
        the campaign report lands (the CI smoke mode)."""
        if until_complete:

            def _watch():
                self._complete_event.wait()
                self.stop()

            threading.Thread(target=_watch, daemon=True).start()
        super().serve_forever(install_signals)
