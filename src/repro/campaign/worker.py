"""The ``repro campaign join`` worker loop: pull, compute, write back.

A joiner is deliberately dumb: loop { claim a shard lease, renew it
from a heartbeat thread while computing, push the records back,
repeat } until the campaign is complete.  All scheduling intelligence
lives in the queue (stale-lease reclamation) and the determinism of
the workload (records are pure functions of ``(spec, shard)``), which
is why any number of joiners — starting late, dying mid-shard,
racing — converge on the same byte-identical ``report.json``.

Two transports behind one :func:`join` entry point, with one
interface (``claim``, ``heartbeat``, ``release``, ``complete_shard``,
``fail``, ``traceparent``, ``complete``, ``lease_ttl``, ``close``):

* **directory** — the campaign directory is reachable (same host, or a
  shared disk with reliable locks).  The transport is a
  :class:`~repro.campaign.broker.ShardBroker` over the directory: the
  worker brokers its own leases and stores shard results and the
  report itself, under the very rules a coordinator applies.
* **url** — an ``http(s)://`` coordinator (``repro campaign serve``).
  :class:`CoordinatorClient` speaks the v2 envelopes: claims carry a
  ``traceparent`` minted from the coordinator's campaign trace (so this
  worker's shard spans attach to the cross-host trace tree), and
  completed records POST back for the coordinator's broker to
  store.

Worker identity is ``host:pid`` — it is stamped into every lease, into
the telemetry run header (:mod:`repro.obs` already records host and
pid), and visible in ``repro campaign status``/``/statz`` while a
lease is live.

**Resilience.**  Every wire call (claim/heartbeat/complete/fail) goes
through the shared :class:`~repro.serve.http.HttpClient` — capped
backoff with deterministic jitter, per-endpoint circuit breakers,
``Retry-After`` honored, each call bounded by the client timeout and
stamped with ``X-Repro-Deadline`` — so a flapping or restarting
coordinator degrades a worker to slow progress, not death.  A shard
whose *compute* raises is reported back through ``fail`` (the queue
re-opens or quarantines it) and the worker moves on to the next claim
instead of dying with the shard.
"""

from __future__ import annotations

import json
import sys
import threading
import time
import urllib.parse

from ..config import RunConfig
from ..obs import active as _telemetry
from ..obs import tracing
from ..serve.http import WIRE_ERRORS, HttpClient
from ..serve.protocol import PROTOCOL_VERSION, envelope
from ..serve.retry import RetryPolicy
from .broker import ShardBroker
from .queue import (
    DEFAULT_LEASE_TTL,
    DEFAULT_QUARANTINE_AFTER,
    Lease,
    default_worker_id,
)
from .runner import Campaign, compute_shard_records
from .spec import CampaignSpec

__all__ = ["CoordinatorClient", "DEFAULT_JOIN_RETRY_POLICY", "JoinError", "join"]

#: Idle poll interval while other workers hold all remaining leases.
DEFAULT_POLL_S = 0.5

#: Wire-retry shape for the worker loop: generous, because a worker
#: outliving a coordinator restart is the whole point.  Eight retries
#: capped at 2 s ride out a multi-second outage per call; the join
#: loop additionally tolerates several consecutive failed claims.
DEFAULT_JOIN_RETRY_POLICY = RetryPolicy(retries=8, base_delay_s=0.05, max_delay_s=2.0)

#: Consecutive claim-call failures (each already retried under the
#: policy) a joiner rides out before giving up on the coordinator.
CLAIM_FAILURE_LIMIT = 5


class JoinError(RuntimeError):
    """The join target is unreachable, foreign, or spoke a bad protocol."""


class _HeartbeatThread:
    """Renews one lease at ``ttl/3`` until stopped (or the lease is lost).

    Losing the lease — the coordinator reclaimed it because we stalled —
    sets :attr:`lost`; the worker finishes its shard anyway (the compute
    is already sunk and results are write-once deterministic, so a
    duplicate completion is harmless) but logs the loss.
    """

    def __init__(self, renew, lease: Lease, interval: float) -> None:
        self._renew = renew
        self.lease = lease
        self.lost = threading.Event()
        self.started = time.monotonic()
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, args=(interval,), daemon=True
        )
        self._thread.start()

    def elapsed(self) -> float:
        return time.monotonic() - self.started

    def _loop(self, interval: float) -> None:
        while not self._stop.wait(interval):
            try:
                renewed = self._renew(self.lease)
            except Exception:
                # Renewal failing past its own retries means the
                # coordinator is unreachable; the lease will expire and
                # be reclaimed — same outcome as an explicit loss.
                renewed = None
            if renewed is None:
                self.lost.set()
                return
            self.lease = renewed

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)


class CoordinatorClient(HttpClient):
    """v2-envelope client for a ``repro campaign serve`` daemon.

    Unlike :class:`~repro.serve.client.ServeClient`, 5xx and 429 answers
    are retried too: a coordinator restarting mid-campaign answers
    connection-refused or 503 for a few seconds, precisely the window
    the backoff is shaped for.
    """

    default_policy = DEFAULT_JOIN_RETRY_POLICY
    breaker_cooldown_s = 0.5
    fault_sites = {
        "/v2/campaign/claim": "campaign.claim",
        "/v2/campaign/heartbeat": "campaign.heartbeat",
        "/v2/campaign/complete": "campaign.complete",
    }
    fault_site = "campaign.request"

    def __init__(
        self,
        url: str,
        timeout: float = 60.0,
        *,
        retry_policy: "RetryPolicy | None" = None,
    ) -> None:
        if urllib.parse.urlsplit(url).scheme != "http":
            raise JoinError(f"unsupported scheme in {url!r} (http only)")
        super().__init__(url, timeout, retry_policy=retry_policy)

    def _retryable(self, status: int) -> bool:
        return status >= 500 or status == 429

    def _error(self, status: int, message: str, retry_after=None) -> JoinError:
        return JoinError(f"coordinator HTTP {status}: {message}")

    def _v2(self, method: str, path: str, payload: "dict | None" = None) -> dict:
        body = None
        if payload is not None:
            body = json.dumps(
                envelope(payload), separators=(",", ":"), sort_keys=True
            ).encode("utf-8")
        data, _ = self._request(method, path, body)
        version = data.get("v")
        if version != PROTOCOL_VERSION:
            raise JoinError(
                f"coordinator speaks protocol {version!r}, "
                f"this client needs {PROTOCOL_VERSION}"
            )
        return data

    def describe(self) -> dict:
        return self._v2("GET", "/v2/campaign")

    def statz(self) -> dict:
        return self._v2("GET", "/statz")

    def claim(self, worker: str) -> dict:
        return self._v2("POST", "/v2/campaign/claim", {"worker": worker})

    def heartbeat(self, lease: Lease) -> "dict":
        return self._v2(
            "POST",
            "/v2/campaign/heartbeat",
            {"shard": lease.shard, "token": lease.token, "worker": lease.worker},
        )

    def complete(self, lease: Lease, records: list) -> dict:
        return self._v2(
            "POST",
            "/v2/campaign/complete",
            {
                "shard": lease.shard,
                "token": lease.token,
                "worker": lease.worker,
                "records": records,
            },
        )

    def fail(self, lease: Lease, error: "str | None" = None) -> dict:
        return self._v2(
            "POST",
            "/v2/campaign/fail",
            {
                "shard": lease.shard,
                "token": lease.token,
                "worker": lease.worker,
                "error": error or "",
            },
        )


class _UrlTransport:
    """Worker side of the coordinator protocol (no shared filesystem)."""

    def __init__(self, url: str, retry_policy: "RetryPolicy | None" = None) -> None:
        self.client = CoordinatorClient(url, retry_policy=retry_policy)
        info = self.client.describe()
        try:
            self.spec = CampaignSpec.from_dict(info["spec"])
        except (KeyError, TypeError, ValueError) as exc:
            raise JoinError(f"coordinator sent a bad spec: {exc}") from exc
        self.lease_ttl = float(info.get("lease_ttl") or DEFAULT_LEASE_TTL)
        self.complete = bool(info.get("complete"))
        self._traceparents: dict = {}

    def claim(self, worker: str) -> "Lease | None":
        answer = self.client.claim(worker)
        self.complete = bool(answer.get("complete"))
        shard = answer.get("shard")
        if shard is None:
            return None
        lease = Lease(
            shard=int(shard),
            worker=worker,
            token=str(answer.get("token")),
            expires=time.time() + float(answer.get("expires_s") or self.lease_ttl),
        )
        self._traceparents[lease.token] = answer.get("traceparent")
        return lease

    def heartbeat(self, lease: Lease):
        answer = self.client.heartbeat(lease)
        if not answer.get("ok"):
            return None
        return Lease(
            lease.shard,
            lease.worker,
            lease.token,
            time.time() + float(answer.get("expires_s") or self.lease_ttl),
        )

    def release(self, lease: Lease) -> None:
        """Nothing to send: the coordinator reclaims the lease when its
        TTL runs out."""

    def complete_shard(self, lease: Lease, records: list) -> None:
        answer = self.client.complete(lease, records)
        self.complete = bool(answer.get("complete"))

    def fail(self, lease: Lease, error: str = "") -> str:
        try:
            answer = self.client.fail(lease, error)
        except JoinError:
            # A pre-quarantine coordinator has no /fail endpoint; the
            # lease will simply expire and be reclaimed.
            return "lost"
        self.complete = bool(answer.get("complete"))
        return str(answer.get("outcome", "lost"))

    def traceparent(self, lease: Lease) -> "str | None":
        return self._traceparents.pop(lease.token, None)

    def close(self) -> None:
        self.client.close()


def _open_transport(
    target,
    *,
    lease_ttl: float,
    cache_dir: "str | None",
    retry_policy: "RetryPolicy | None",
    quarantine_after: "int | None",
):
    """``(transport, spec, cache_dir)`` for a directory or a URL."""
    if isinstance(target, str) and target.startswith(("http://", "https://")):
        transport = _UrlTransport(target, retry_policy)
        # A remote joiner has no campaign directory; verdict caching
        # (if the spec wants it) goes to the caller's local directory.
        # Cache location never affects record bytes.
        return transport, transport.spec, cache_dir
    campaign = Campaign.open(target)
    broker = ShardBroker(
        campaign,
        lease_ttl=lease_ttl,
        quarantine_after=(
            DEFAULT_QUARANTINE_AFTER if quarantine_after is None else quarantine_after
        ),
    )
    return broker, campaign.spec, str(campaign.paths.cache_dir)


def join(
    target,
    *,
    workers: "int | None" = None,
    lease_ttl: float = DEFAULT_LEASE_TTL,
    max_shards: "int | None" = None,
    poll_s: float = DEFAULT_POLL_S,
    cache_dir: "str | None" = None,
    worker_id: "str | None" = None,
    retry_budget: "int | None" = None,
    quarantine_after: "int | None" = None,
) -> dict:
    """Work a campaign from ``target`` (a directory or coordinator URL)
    until it completes (or ``max_shards`` shards have been executed).

    ``retry_budget`` overrides the per-wire-call retry count of
    :data:`DEFAULT_JOIN_RETRY_POLICY`; ``lease_ttl`` and
    ``quarantine_after`` apply to directory joins (URL joiners inherit
    the coordinator's settings).

    Returns a summary ``{"worker", "shards", "lost_leases",
    "failed_shards", "complete"}``.
    """
    worker = worker_id or default_worker_id()
    retry_policy = None
    if retry_budget is not None:
        retry_policy = RetryPolicy(
            retries=retry_budget,
            base_delay_s=DEFAULT_JOIN_RETRY_POLICY.base_delay_s,
            max_delay_s=DEFAULT_JOIN_RETRY_POLICY.max_delay_s,
        )
    transport, spec, cache_dir = _open_transport(
        target,
        lease_ttl=lease_ttl,
        cache_dir=cache_dir,
        retry_policy=retry_policy,
        quarantine_after=quarantine_after,
    )
    # One resolution of the fan-out width for the whole join (satellite
    # of the same fix in Campaign.run): $REPRO_WORKERS drifting while a
    # campaign runs must not reshape later shards.
    width = RunConfig(workers=workers).resolved_workers()
    tel = _telemetry()
    executed = []
    lost = 0
    failed = 0
    claim_failures = 0
    try:
        while True:
            if max_shards is not None and len(executed) >= max_shards:
                break
            try:
                lease = transport.claim(worker)
            except (JoinError, *WIRE_ERRORS):
                # The claim call exhausted its own retries — the
                # coordinator is down harder than the per-call budget
                # covers (a restart takes seconds).  Ride out a few of
                # these before conceding the campaign is unreachable.
                claim_failures += 1
                if claim_failures > CLAIM_FAILURE_LIMIT:
                    raise
                time.sleep(poll_s)
                continue
            claim_failures = 0
            if lease is None:
                if transport.complete:
                    break
                time.sleep(poll_s)
                continue
            renew_every = max(transport.lease_ttl / 3.0, 0.05)
            beat = _HeartbeatThread(transport.heartbeat, lease, renew_every)
            context = tracing.TraceContext.from_traceparent(
                transport.traceparent(lease)
            )
            try:
                with tracing.use(context):
                    with tracing.trace_span(
                        "campaign.join.shard",
                        shard=lease.shard,
                        worker=worker,
                    ):
                        records = compute_shard_records(
                            spec, lease.shard, workers=width, cache_dir=cache_dir
                        )
            except Exception as exc:
                # The shard's *compute* failed — a poison instance, a
                # resource limit, an injected fault.  Report it so the
                # queue can re-open or quarantine the shard, and keep
                # claiming: one bad shard must not kill the worker.
                beat.stop()
                failed += 1
                outcome = transport.fail(beat.lease, repr(exc))
                tel.event(
                    "campaign.shard.error",
                    shard=lease.shard,
                    worker=worker,
                    outcome=outcome,
                    error=repr(exc)[:500],
                )
                print(
                    f"repro campaign join: shard {lease.shard} failed "
                    f"({exc!r}); outcome: {outcome}",
                    file=sys.stderr,
                )
                continue
            except BaseException:
                beat.stop()
                transport.release(beat.lease)
                raise
            beat.stop()
            if beat.lost.is_set():
                # Our lease was reclaimed mid-compute (we stalled past
                # the TTL).  The records are still valid — write-once
                # results make duplicate completion harmless.
                lost += 1
                elapsed = beat.elapsed()
                tel.count("campaign.lease.lost.midshard")
                tel.event(
                    "campaign.lease.lost",
                    shard=lease.shard,
                    worker=worker,
                    elapsed_s=round(elapsed, 3),
                )
                print(
                    f"repro campaign join: warning: lease on shard "
                    f"{lease.shard} lost after {elapsed:.1f}s of compute; "
                    "completing anyway (duplicate results are identical)",
                    file=sys.stderr,
                )
            transport.complete_shard(beat.lease, records)
            executed.append(lease.shard)
            tel.heartbeat("campaign.join", worker=worker, shard=lease.shard)
    finally:
        transport.close()
    return {
        "worker": worker,
        "shards": executed,
        "lost_leases": lost,
        "failed_shards": failed,
        "complete": transport.complete,
    }

