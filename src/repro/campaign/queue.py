"""Durable pull-based shard queue: the multi-host coordination layer.

A campaign's shards are independent, deterministic units of work whose
checkpoints are atomic and write-once — which means correctness never
depends on mutual exclusion.  Two workers that somehow run the same
shard write byte-identical checkpoints; the second ``os.replace`` is a
no-op in content.  The queue below therefore only has to provide
*liveness* (every shard eventually runs) and *efficiency* (shards
rarely run twice), which is exactly what a lease protocol gives:

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
* ``complete`` marks a shard ``done`` *after* its checkpoint landed in
  the write-once store, so the queue's ``done`` state never runs ahead
  of durable results.
* ``fail`` records a worker's compute failure against the shard
  (token-guarded like every other transition).  A shard that keeps
  failing across ``quarantine_after`` *distinct* workers — or across
  three times that many attempts total, so a lone worker cannot
  livelock on it — moves to ``quarantined``: never re-leased, reported
  explicitly, repairable by ``repro doctor``/``reset``.

The store is one stdlib :mod:`sqlite3` table of leasable shard rows in
the campaign directory's ``queue.sqlite``
(:attr:`~repro.campaign.manifest.CampaignPaths.queue_db_path`), in WAL
mode with ``BEGIN IMMEDIATE`` transitions — the PyExperimenter
experiment-table pattern: any number of processes pull open rows from
one durable table.  It is correct for any number of processes on one
host or on a shared disk with sane locking.  Hosts without such a disk
join a ``repro campaign serve`` coordinator by URL instead; the
coordinator is then the only process that opens the queue.

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
import sqlite3
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

from ..faults import fault_point
from ..obs import active as _telemetry

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


@contextmanager
def _transaction(conn):
    """One ``BEGIN IMMEDIATE`` transaction: every read-modify-write in
    it is atomic against other processes (SQLite serializes writers)."""
    conn.execute("BEGIN IMMEDIATE")
    try:
        yield conn
    except BaseException:
        conn.execute("ROLLBACK")
        raise
    conn.execute("COMMIT")


def _reclaim(conn, now: float) -> list:
    rows = conn.execute(f"SELECT shard FROM shards WHERE {_EXPIRED}", (now,)).fetchall()
    if rows:
        conn.execute(f"{_REOPEN} WHERE {_EXPIRED}", (now,))
    return [row[0] for row in rows]


def _reset(conn, shards) -> list:
    reset = []
    for shard in map(int, shards):
        cursor = conn.execute(
            f"{_REOPEN}, failures='[]'"
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
    and hosts concurrently; the invariant they jointly maintain is that
    at most one *unexpired* lease exists per shard, and ``done`` shards
    are never claimable again.
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
        self._conn = sqlite3.connect(
            self.path, timeout=30.0, check_same_thread=False,
            isolation_level=None,
        )
        with self._lock:
            self._enable_wal(timeout=30.0)
            self._conn.execute("PRAGMA busy_timeout=30000")
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
                " failures TEXT NOT NULL DEFAULT '[]')"
            )
            # Migration for queues created before the failure counter:
            # ALTER is idempotent-by-check against the live column list.
            columns = {
                row[1]
                for row in self._conn.execute("PRAGMA table_info(shards)")
            }
            if "failures" not in columns:
                self._conn.execute(
                    "ALTER TABLE shards ADD COLUMN failures"
                    " TEXT NOT NULL DEFAULT '[]'"
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

    def _enable_wal(self, timeout: float) -> None:
        """Switch to WAL, retrying within the busy timeout: SQLite
        answers a journal-mode change that races another connection's
        open with an immediate "database is locked", without consulting
        the busy handler."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                self._conn.execute("PRAGMA journal_mode=WAL")
                return
            except sqlite3.OperationalError as error:
                if "locked" not in str(error) or time.monotonic() >= deadline:
                    raise
                time.sleep(0.01)

    def close(self) -> None:
        with self._lock:
            self._conn.close()

    def __enter__(self) -> "WorkQueue":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- protocol -------------------------------------------------------
    def enroll(self, shards, done=()) -> None:
        """Idempotently register ``shards`` (marking ``done`` complete)."""
        with self._lock, _transaction(self._conn) as conn:
            conn.executemany(
                "INSERT OR IGNORE INTO shards (shard) VALUES (?)",
                [(int(shard),) for shard in shards],
            )
            conn.executemany(
                "UPDATE shards SET state='done', worker=NULL,"
                " token=NULL, expires=NULL WHERE shard=?",
                [(int(shard),) for shard in set(done)],
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

    def complete(self, lease: Lease) -> bool:
        """Mark the leased shard done; ``False`` if the lease was lost
        (the shard's checkpoint still counts — completion is durable in
        the store, the queue merely mirrors it)."""
        state = None
        with self._lock:
            cursor = self._conn.execute(
                "UPDATE shards SET state='done', worker=NULL, token=NULL,"
                " expires=NULL WHERE shard=? AND token=? AND state='leased'",
                (lease.shard, lease.token),
            )
            if cursor.rowcount != 1:
                row = self._conn.execute(
                    "SELECT state FROM shards WHERE shard=?", (lease.shard,)
                ).fetchone()
                state = row[0] if row else None
        if cursor.rowcount != 1:
            # A completion whose shard is already done is a *duplicate*
            # (someone else finished the same deterministic work — the
            # checkpoint bytes match); anything else is a lost lease.
            if state == "done":
                _telemetry().count("campaign.complete.duplicate")
            else:
                _telemetry().count("campaign.lease.lost")
            return False
        _telemetry().count("campaign.lease.completed")
        return True

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

    def _shards_in(self, state: str) -> list:
        with self._lock:
            rows = self._conn.execute(
                "SELECT shard FROM shards WHERE state=? ORDER BY shard", (state,)
            ).fetchall()
        return [row[0] for row in rows]

    def quarantined(self) -> list:
        """Shard ids currently quarantined, sorted."""
        return self._shards_in("quarantined")

    def done_shards(self) -> list:
        """Shard ids the queue believes are complete, sorted."""
        return self._shards_in("done")

    def reset(self, shards) -> list:
        """Force ``shards`` back to ``open`` (from ``done`` or
        ``quarantined``) — the coordinator's boot-reconciliation and
        ``repro doctor --repair`` path.  Returns the ids actually
        reset."""
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


def audit(path, digest: str, n_shards: int, completed, *, repair: bool = False) -> list:
    """Check the queue at ``path`` against its campaign; the problems
    found, as ``(severity, detail, repair)`` triples.

    ``completed`` is the set of shards with a valid checkpoint — the
    source of truth the queue merely mirrors, which makes every repair
    safe: an out-of-range row is ``"removed"``, an expired lease
    ``"reclaimed"``, and a ``done`` row without a checkpoint ``"reset"``
    to open (at worst a worker recomputes deterministic records).
    Quarantined shards are reported as ``"info"``.  ``repair`` is
    ``None`` in every triple unless ``repair=True``; without it the
    database is only read.

    Raises :class:`QueueError` when the database cannot be used at all
    (missing, unopenable, corrupt, or coordinating another campaign) —
    the caller decides whether to set the file aside.
    """
    if not Path(path).is_file():
        # sqlite3.connect would create an empty database here.
        raise QueueError(f"no queue database at {path}")
    try:
        conn = sqlite3.connect(path, timeout=5.0, isolation_level=None)
    except sqlite3.Error as error:
        raise QueueError(f"cannot open queue database ({error})") from None
    try:
        try:
            row = conn.execute(_SELECT_DIGEST).fetchone()
            rows = conn.execute(
                "SELECT shard, state, worker, expires FROM shards"
            ).fetchall()
        except sqlite3.Error as error:
            raise QueueError(f"corrupt queue database ({error})") from None
        if row is None or row[0] != digest:
            found = row[0][:12] if row else "missing"
            raise QueueError(
                f"queue digest {found!r} does not match campaign "
                f"digest {digest[:12]!r} — foreign queue"
            )
        now = time.time()
        issues = []
        out_of_range, stale, quarantined = [], [], []
        for shard, state, worker, expires in rows:
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
            elif state == "done" and shard not in completed:
                stale.append(shard)
                issues.append((
                    "error",
                    f"shard {shard} marked done in the queue but has no "
                    "valid checkpoint — it would never re-run",
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
                _reset(conn, stale)
        else:
            issues = [(severity, detail, None) for severity, detail, _ in issues]
        if quarantined:
            issues.append((
                "info",
                f"shard(s) {sorted(quarantined)} quarantined as poison "
                "(reset with repro.campaign.queue reset to retry them)",
                None,
            ))
        return issues
    finally:
        conn.close()
