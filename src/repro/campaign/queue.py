"""Durable pull-based shard queue: the campaign's one record of its shards.

A campaign's shards are independent, deterministic units of work whose
results are write-once — which means correctness never depends on
mutual exclusion.  Two workers that somehow run the same shard compute
byte-identical records; the second completion stores nothing.  The
queue below therefore only has to provide *liveness* (every shard
eventually runs) and *efficiency* (shards rarely run twice), which is
exactly what a lease protocol gives:

* ``claim`` atomically moves the lowest open shard to ``leased`` and
  hands back a :class:`Lease` (shard id + an unguessable token + an
  expiry).
* ``heartbeat`` extends a live lease; a worker that cannot renew in
  time — it was SIGKILLed, its host died, its clock stalled — simply
  stops being the owner.
* ``reclaim`` moves expired leases back to ``open`` so surviving
  workers pick the orphaned shards up.  Every ``claim`` reclaims
  first, so a dead worker's shards are recovered by the next pull with
  no coordinator tick required.
* ``complete`` stores the shard's result text and marks the row
  ``done`` in one transaction, so the two never disagree; ``store`` is
  the same write without a lease (a local ``campaign run``).
* ``fail`` records a worker's compute failure against the shard
  (token-guarded like every other transition).  A shard that keeps
  failing across ``quarantine_after`` *distinct* workers — or across
  three times that many attempts total, so a lone worker cannot
  livelock on it — moves to ``quarantined``: never re-leased, reported
  explicitly, retried only after :meth:`WorkQueue.reset`.

The store is one stdlib :mod:`sqlite3` table of shard rows in the
campaign directory's ``queue.sqlite``
(:attr:`~repro.campaign.manifest.CampaignPaths.queue_db_path`), in WAL
mode with ``BEGIN IMMEDIATE`` transitions (both from
:mod:`repro.sqlstore`, shared with the verdict cache) — the PyExperimenter
experiment-table pattern: one table holds each unit's status and its
result, and any number of processes pull open rows and write results
back.  It is correct for any number of processes on one host or on a
shared disk with sane locking.  Hosts without such a disk join a
``repro campaign serve`` coordinator by URL instead; the coordinator is
then the only process that opens the queue.

This module is the only one that knows the queue's schema:
:func:`audit` is the check ``repro doctor`` runs over a campaign's
queue, repairing with the same statements the queue's own transitions
issue.

Lease traffic is visible as ``campaign.lease.*`` telemetry counters and
``campaign.queue.*`` gauges (scraped by the coordinator's ``/metrics``
and shown by ``repro top``), and the ``queue.claim`` / ``queue.release``
fault sites expose the protocol to the chaos suite.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from .. import sqlstore
from ..faults import fault_point
from ..obs import active as _telemetry
from ..sqlstore import transaction as _transaction

__all__ = [
    "DEFAULT_LEASE_TTL",
    "DEFAULT_QUARANTINE_AFTER",
    "Lease",
    "QueueError",
    "WorkQueue",
    "audit",
    "default_worker_id",
]

#: Seconds a lease stays valid without a heartbeat.  Workers renew at
#: a third of this, so one missed renewal never loses a lease; losing
#: three in a row (or dying) does.
DEFAULT_LEASE_TTL = 30.0

#: Distinct workers that must fail a shard before it is quarantined.
#: (A single worker quarantines it alone after three times as many
#: failures — a poison shard must not livelock a one-worker campaign.)
DEFAULT_QUARANTINE_AFTER = 3

# Every transition back to ``open`` clears the lease columns; callers
# append their own guard.  ``reclaim`` and ``reset`` (and the doctor's
# repairs through them) share these statements.
_REOPEN = "UPDATE shards SET state='open', worker=NULL, token=NULL, expires=NULL"
_EXPIRED = "state='leased' AND (expires IS NULL OR expires < ?)"
_SELECT_DIGEST = "SELECT value FROM meta WHERE key='digest'"


class QueueError(RuntimeError):
    """A queue database is foreign, corrupt, or unusable."""


def default_worker_id() -> str:
    """This process's worker identity, stamped into leases and records."""
    return f"{socket.gethostname()}:{os.getpid()}"


@dataclass(frozen=True)
class Lease:
    """One claimed shard: who holds it, until when, under which token.

    The token is the lease's identity — heartbeat and complete are
    refused for a token the queue no longer recognizes, which is how a
    worker whose lease was reclaimed finds out it lost ownership.
    """

    shard: int
    worker: str
    token: str
    expires: float

    def remaining(self, now: "float | None" = None) -> float:
        return self.expires - (time.time() if now is None else now)


def _reclaim(conn, now: float) -> list:
    rows = conn.execute(f"SELECT shard FROM shards WHERE {_EXPIRED}", (now,)).fetchall()
    if rows:
        conn.execute(f"{_REOPEN} WHERE {_EXPIRED}", (now,))
    return [row[0] for row in rows]


def _reset(conn, shards) -> list:
    reset = []
    for shard in map(int, shards):
        cursor = conn.execute(
            f"{_REOPEN}, failures='[]', result=NULL"
            " WHERE shard=? AND state IN ('done', 'quarantined')",
            (shard,),
        )
        if cursor.rowcount == 1:
            reset.append(shard)
    return reset


class WorkQueue:
    """One SQLite table of leasable shard rows at ``path`` (a campaign's
    :attr:`~repro.campaign.manifest.CampaignPaths.queue_db_path`).

    All methods are safe to call from any number of threads, processes,
    and hosts concurrently; the invariants they jointly maintain are
    that at most one *unexpired* lease exists per shard, that ``done``
    shards are never claimable again, and that a row holds a result
    exactly when it is ``done``.
    """

    def __init__(
        self,
        path,
        digest: str,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        quarantine_after: int = DEFAULT_QUARANTINE_AFTER,
    ) -> None:
        if lease_ttl <= 0:
            raise QueueError("lease_ttl must be positive")
        if quarantine_after < 1:
            raise QueueError("quarantine_after must be at least 1")
        self.digest = digest
        self.lease_ttl = lease_ttl
        self.quarantine_after = quarantine_after
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # The lock serializes this connection across threads.
        self._lock = threading.Lock()
        self._conn = sqlstore.connect(self.path, timeout=30.0)
        with self._lock:
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS meta "
                "(key TEXT PRIMARY KEY, value TEXT NOT NULL)"
            )
            self._conn.execute(
                "CREATE TABLE IF NOT EXISTS shards ("
                " shard INTEGER PRIMARY KEY,"
                " state TEXT NOT NULL DEFAULT 'open',"
                " worker TEXT,"
                " token TEXT,"
                " expires REAL,"
                " claims INTEGER NOT NULL DEFAULT 0,"
                " failures TEXT NOT NULL DEFAULT '[]',"
                " result TEXT)"
            )
            row = self._conn.execute(_SELECT_DIGEST).fetchone()
            if row is None:
                self._conn.execute(
                    "INSERT OR IGNORE INTO meta VALUES ('digest', ?)",
                    (self.digest,),
                )
                row = self._conn.execute(_SELECT_DIGEST).fetchone()
            if row[0] != self.digest:
                self._conn.close()
                raise QueueError(
                    f"{self.path} coordinates campaign {row[0][:12]}, "
                    f"refusing to serve {self.digest[:12]}"
                )

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "WorkQueue":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- protocol -------------------------------------------------------
    def enroll(self, shards) -> None:
        """Idempotently register ``shards`` as rows (new rows open)."""
        with self._lock, _transaction(self._conn) as conn:
            conn.executemany(
                "INSERT OR IGNORE INTO shards (shard) VALUES (?)",
                [(int(shard),) for shard in shards],
            )

    def claim(self, worker: str) -> "Lease | None":
        """Lease the lowest reclaimable-or-open shard, or ``None``."""
        fault_point("queue.claim", worker)
        now = time.time()
        lease = None
        with self._lock, _transaction(self._conn) as conn:
            reclaimed = _reclaim(conn, now)
            row = conn.execute(
                "SELECT shard FROM shards WHERE state='open'"
                " ORDER BY shard LIMIT 1"
            ).fetchone()
            if row is not None:
                lease = Lease(row[0], worker, os.urandom(8).hex(), now + self.lease_ttl)
                conn.execute(
                    "UPDATE shards SET state='leased', worker=?, token=?,"
                    " expires=?, claims=claims+1 WHERE shard=?",
                    (worker, lease.token, lease.expires, lease.shard),
                )
        self._count_reclaimed(reclaimed)
        if lease is not None:
            _telemetry().count("campaign.lease.claimed")
        return lease

    def heartbeat(self, lease: Lease) -> "Lease | None":
        """Extend ``lease``; the renewed lease, or ``None`` if lost."""
        expires = time.time() + self.lease_ttl
        with self._lock:
            cursor = self._conn.execute(
                "UPDATE shards SET expires=? WHERE shard=? AND token=?"
                " AND state='leased'",
                (expires, lease.shard, lease.token),
            )
        if cursor.rowcount != 1:
            _telemetry().count("campaign.lease.lost")
            return None
        _telemetry().count("campaign.lease.heartbeat")
        return Lease(lease.shard, lease.worker, lease.token, expires)

    def complete(self, lease: Lease, result: "str | None" = None) -> bool:
        """Store ``result`` and mark the leased shard done; whether
        ``lease`` still owned it.  Results are write-once: completing a
        done shard is a *duplicate* and stores nothing, while a lost
        lease still stores ``result`` (records are a pure function of
        ``(spec, shard)``)."""
        owned, state = self._complete(lease.shard, lease.token, result)
        tel = _telemetry()
        if owned:
            tel.count("campaign.lease.completed")
        elif state == "done":
            tel.count("campaign.complete.duplicate")
        else:
            tel.count("campaign.lease.lost")
        return owned

    def store(self, shard: int, result: str) -> None:
        """:meth:`complete` for a shard computed without a lease."""
        self._complete(shard, None, result)

    def _complete(self, shard: int, token, result) -> "tuple[bool, str | None]":
        with self._lock, _transaction(self._conn) as conn:
            row = conn.execute(
                "SELECT state, token FROM shards WHERE shard=?", (shard,)
            ).fetchone()
            state, held = row if row else (None, None)
            owned = state == "leased" and held == token
            if state not in (None, "done") and (owned or result is not None):
                conn.execute(
                    "UPDATE shards SET state='done', worker=NULL, token=NULL,"
                    " expires=NULL, result=? WHERE shard=?",
                    (result, shard),
                )
        return owned, state

    def release(self, lease: Lease) -> None:
        """Return a leased shard to ``open`` (worker giving up cleanly)."""
        fault_point("queue.release", lease.shard)
        with self._lock:
            self._conn.execute(
                f"{_REOPEN} WHERE shard=? AND token=? AND state='leased'",
                (lease.shard, lease.token),
            )
        _telemetry().count("campaign.lease.released")

    def reclaim(self) -> list:
        """Move every expired lease back to ``open``; the shard ids."""
        now = time.time()
        with self._lock, _transaction(self._conn) as conn:
            reclaimed = _reclaim(conn, now)
        self._count_reclaimed(reclaimed)
        return reclaimed

    @staticmethod
    def _count_reclaimed(shards) -> None:
        if shards:
            _telemetry().count("campaign.lease.reclaimed", len(shards))

    def fail(self, lease: Lease) -> str:
        """Record a compute failure against the leased shard.

        Token-guarded.  Returns the shard's resulting disposition:
        ``"open"`` (re-leasable), ``"quarantined"`` (failure budget
        exhausted — never re-leased), or ``"lost"`` (the lease was
        already gone; nothing recorded).
        """
        with self._lock, _transaction(self._conn) as conn:
            row = conn.execute(
                "SELECT failures FROM shards WHERE shard=? AND token=?"
                " AND state='leased'",
                (lease.shard, lease.token),
            ).fetchone()
            if row is not None:
                try:
                    workers = json.loads(row[0] or "[]")
                except json.JSONDecodeError:
                    workers = []
                workers.append(lease.worker)
                # The failure budget: ``quarantine_after`` distinct
                # workers, or three times that many attempts from
                # however few.
                quarantine = (
                    len(set(workers)) >= self.quarantine_after
                    or len(workers) >= 3 * self.quarantine_after
                )
                state = "quarantined" if quarantine else "open"
                conn.execute(
                    "UPDATE shards SET state=?, worker=NULL, token=NULL,"
                    " expires=NULL, failures=? WHERE shard=? AND token=?",
                    (state, json.dumps(workers), lease.shard, lease.token),
                )
        tel = _telemetry()
        if row is None:
            tel.count("campaign.lease.lost")
            return "lost"
        tel.count("campaign.shard.failed")
        if state == "quarantined":
            tel.count("campaign.shard.quarantined")
        return state

    def _shards_in(self, *states: str) -> list:
        with self._lock:
            rows = self._conn.execute(
                "SELECT shard FROM shards WHERE state IN"
                f" ({', '.join('?' * len(states))}) ORDER BY shard",
                states,
            ).fetchall()
        return [row[0] for row in rows]

    def quarantined(self) -> list:
        """Shard ids currently quarantined, sorted."""
        return self._shards_in("quarantined")

    def results(self) -> dict:
        """The stored result text of every done shard, by shard id."""
        with self._lock:
            rows = self._conn.execute(
                "SELECT shard, result FROM shards WHERE state='done'"
            ).fetchall()
        return dict(rows)

    def unresolved(self) -> list:
        """Shard ids still open or leased, sorted."""
        return self._shards_in("open", "leased")

    def reset(self, shards) -> list:
        """Force ``shards`` back to ``open`` (from ``done`` or
        ``quarantined``), dropping their results and failure history —
        how an unusable result is discarded, and the ``repro doctor
        --repair`` path.  Returns the ids actually reset."""
        with self._lock, _transaction(self._conn) as conn:
            reset = _reset(conn, shards)
        if reset:
            _telemetry().count("campaign.queue.reset", len(reset))
        return reset

    def snapshot(self) -> dict:
        """Queue state: counts per state plus the live leases."""
        now = time.time()
        with self._lock:
            counts = dict(
                self._conn.execute(
                    "SELECT state, COUNT(*) FROM shards GROUP BY state"
                ).fetchall()
            )
            leases = self._conn.execute(
                "SELECT shard, worker, expires FROM shards"
                " WHERE state='leased' ORDER BY shard"
            ).fetchall()
        snapshot = {
            "open": counts.get("open", 0),
            "leased": counts.get("leased", 0),
            "done": counts.get("done", 0),
            "quarantined": counts.get("quarantined", 0),
            "quarantined_shards": self.quarantined(),
            "leases": [
                {
                    "shard": shard,
                    "worker": worker,
                    "expires_in": round(expires - now, 3),
                }
                for shard, worker, expires in leases
            ],
        }
        tel = _telemetry()
        tel.gauge("campaign.queue.depth", snapshot["open"])
        tel.gauge("campaign.queue.leased", snapshot["leased"])
        tel.gauge("campaign.queue.done", snapshot["done"])
        tel.gauge("campaign.shards_quarantined", snapshot["quarantined"])
        return snapshot


#: The class's earlier name; the benchmark's layer table still targets it.
SQLiteWorkQueue = WorkQueue


def audit(path, digest: str, n_shards: int, read, *, repair: bool = False) -> tuple:
    """Check the queue at ``path`` against its campaign: the problems
    found, as ``(severity, detail, repair)`` triples, and the value of
    every usable result, by shard id.

    ``read(shard, text)`` turns a done row's result into ``(value,
    None)``, or ``(None, why)`` when it is unusable.  Every repair is
    safe, since a shard's records are a pure function of the spec: an
    out-of-range row is ``"removed"``, an expired lease ``"reclaimed"``,
    and a done row with an unusable result ``"reset"`` to open (a
    worker recomputes it).  Quarantined shards are reported as
    ``"info"``.  ``repair`` is ``None`` in every triple unless
    ``repair=True``; without it the database is only read.

    Raises :class:`QueueError` when the database cannot be used at all
    (missing, unopenable, corrupt, or coordinating another campaign) —
    the caller decides whether to set the file aside.
    """
    if not Path(path).is_file():
        # sqlite3.connect would create an empty database here.
        raise QueueError(f"no queue database at {path}")
    try:
        conn = sqlstore.connect(path, timeout=5.0, wal=False)
    except sqlstore.Error as error:
        raise QueueError(f"cannot open queue database ({error})") from None
    try:
        try:
            row = conn.execute(_SELECT_DIGEST).fetchone()
            rows = conn.execute(
                "SELECT shard, state, worker, expires, result FROM shards"
                " ORDER BY shard"
            ).fetchall()
        except sqlstore.Error as error:
            raise QueueError(f"corrupt queue database ({error})") from None
        if row is None or row[0] != digest:
            found = row[0][:12] if row else "missing"
            raise QueueError(
                f"queue digest {found!r} does not match campaign "
                f"digest {digest[:12]!r} — foreign queue"
            )
        now = time.time()
        issues, values = [], {}
        out_of_range, unusable, quarantined = [], [], []
        for shard, state, worker, expires, result in rows:
            if not 0 <= shard < n_shards:
                out_of_range.append(shard)
                issues.append((
                    "error",
                    f"shard id {shard} out of range (spec has {n_shards} shards)",
                    "removed",
                ))
            elif state == "leased" and (expires is None or expires < now):
                issues.append((
                    "warning",
                    f"expired lease on shard {shard} (worker {worker or '?'})"
                    " — orphaned by a crashed or partitioned worker",
                    "reclaimed",
                ))
            elif state == "done":
                value, why = read(shard, result)
                if why is None:
                    values[shard] = value
                    continue
                unusable.append(shard)
                issues.append((
                    "error",
                    f"shard {shard} has an unusable result: {why} — the "
                    "shard will re-run on resume",
                    "reset",
                ))
            elif state == "quarantined":
                quarantined.append(shard)
        if repair and issues:
            with _transaction(conn):
                conn.executemany(
                    "DELETE FROM shards WHERE shard=?",
                    [(shard,) for shard in out_of_range],
                )
                _reclaim(conn, now)
                _reset(conn, unusable)
        else:
            issues = [(severity, detail, None) for severity, detail, _ in issues]
        if quarantined:
            issues.append((
                "info",
                f"shard(s) {sorted(quarantined)} quarantined as poison (reset "
                "with repro.campaign.WorkQueue(path, digest).reset("
                f"{sorted(quarantined)}) to retry them)",
                None,
            ))
        return issues, values
    finally:
        conn.close()
