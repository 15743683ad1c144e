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

Two interchangeable backends behind the same :class:`WorkQueue`
surface (following the PyExperimenter experiment-table pattern: any
number of hosts pull open rows from one durable table):

* :class:`SQLiteWorkQueue` — a stdlib :mod:`sqlite3` table in WAL mode
  with ``BEGIN IMMEDIATE`` claims; the default, correct for any number
  of processes on one host or a shared disk with sane locking.
* :class:`FileLeaseWorkQueue` — ``O_EXCL`` lease files plus done
  markers, for shared filesystems where SQLite locking is untrustworthy
  (NFS).  Reclamation renames a stale lease to a tombstone, which makes
  "two reclaimers race" safe: exactly one rename wins.  The one
  unavoidable file-lease race — a reclaimer stealing a lease refreshed
  between its staleness check and its rename — degrades to duplicated
  work, never to corruption, because the loser's next heartbeat returns
  ``False`` and checkpoints are write-once-identical anyway.

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
from dataclasses import dataclass
from pathlib import Path

from ..faults import fault_point
from ..obs import active as _telemetry

__all__ = [
    "BACKENDS",
    "DEFAULT_LEASE_TTL",
    "DEFAULT_QUARANTINE_AFTER",
    "FileLeaseWorkQueue",
    "Lease",
    "QueueError",
    "SQLiteWorkQueue",
    "WorkQueue",
    "default_worker_id",
    "open_queue",
]

#: The pluggable coordination backends, in preference order.
BACKENDS = ("sqlite", "file")

#: Seconds a lease stays valid without a heartbeat.  Workers renew at
#: a third of this, so one missed renewal never loses a lease; losing
#: three in a row (or dying) does.
DEFAULT_LEASE_TTL = 30.0

#: Distinct workers that must fail a shard before it is quarantined.
#: (A single worker quarantines it alone after three times as many
#: failures — a poison shard must not livelock a one-worker campaign.)
DEFAULT_QUARANTINE_AFTER = 3


class QueueError(RuntimeError):
    """A queue directory is foreign, corrupt, or unusable."""


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


class WorkQueue:
    """The coordination surface both backends implement.

    All methods are safe to call from any number of threads, processes,
    and hosts concurrently; the invariant they jointly maintain is that
    at most one *unexpired* lease exists per shard, and ``done`` shards
    are never claimable again.
    """

    backend = "abstract"

    def __init__(
        self,
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

    # -- protocol -------------------------------------------------------
    def enroll(self, shards, done=()) -> None:
        """Idempotently register ``shards`` (marking ``done`` complete)."""
        raise NotImplementedError

    def claim(self, worker: str) -> "Lease | None":
        """Lease the lowest reclaimable-or-open shard, or ``None``."""
        raise NotImplementedError

    def heartbeat(self, lease: Lease) -> "Lease | None":
        """Extend ``lease``; the renewed lease, or ``None`` if lost."""
        raise NotImplementedError

    def complete(self, lease: Lease) -> bool:
        """Mark the leased shard done; ``False`` if the lease was lost
        (the shard's checkpoint still counts — completion is durable in
        the store, the queue merely mirrors it)."""
        raise NotImplementedError

    def release(self, lease: Lease) -> None:
        """Return a leased shard to ``open`` (worker giving up cleanly)."""
        raise NotImplementedError

    def reclaim(self) -> list:
        """Move every expired lease back to ``open``; the shard ids."""
        raise NotImplementedError

    def fail(self, lease: Lease) -> str:
        """Record a compute failure against the leased shard.

        Token-guarded.  Returns the shard's resulting disposition:
        ``"open"`` (re-leasable), ``"quarantined"`` (failure budget
        exhausted — never re-leased), or ``"lost"`` (the lease was
        already gone; nothing recorded).
        """
        raise NotImplementedError

    def quarantined(self) -> list:
        """Shard ids currently quarantined, sorted."""
        raise NotImplementedError

    def done_shards(self) -> list:
        """Shard ids the queue believes are complete, sorted."""
        raise NotImplementedError

    def reset(self, shards) -> list:
        """Force ``shards`` back to ``open`` (from ``done`` or
        ``quarantined``) — the coordinator's boot-reconciliation and
        ``repro doctor --repair`` path.  Returns the ids actually
        reset."""
        raise NotImplementedError

    def snapshot(self) -> dict:
        """Queue state: counts per state plus the live leases."""
        raise NotImplementedError

    def close(self) -> None:
        pass

    def __enter__(self) -> "WorkQueue":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- shared bookkeeping ---------------------------------------------
    def _record_claim(self, lease: Lease) -> None:
        _telemetry().count("campaign.lease.claimed")

    def _record_reclaim(self, shards) -> None:
        if shards:
            _telemetry().count("campaign.lease.reclaimed", len(shards))

    def _publish_gauges(self, snapshot: dict) -> None:
        tel = _telemetry()
        tel.gauge("campaign.queue.depth", snapshot["open"])
        tel.gauge("campaign.queue.leased", snapshot["leased"])
        tel.gauge("campaign.queue.done", snapshot["done"])
        tel.gauge("campaign.shards_quarantined", snapshot.get("quarantined", 0))

    def _should_quarantine(self, workers) -> bool:
        """The failure budget: ``quarantine_after`` distinct workers, or
        three times that many attempts from however few."""
        return (
            len(set(workers)) >= self.quarantine_after
            or len(workers) >= 3 * self.quarantine_after
        )

    def _record_fail(self, lease: Lease, outcome: str) -> None:
        tel = _telemetry()
        tel.count("campaign.shard.failed")
        if outcome == "quarantined":
            tel.count("campaign.shard.quarantined")


class SQLiteWorkQueue(WorkQueue):
    """The default backend: one SQLite table of leasable shard rows."""

    backend = "sqlite"

    def __init__(
        self,
        path,
        digest: str,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        quarantine_after: int = DEFAULT_QUARANTINE_AFTER,
    ) -> None:
        super().__init__(digest, lease_ttl, quarantine_after)
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
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
            row = self._conn.execute(
                "SELECT value FROM meta WHERE key='digest'"
            ).fetchone()
            if row is None:
                self._conn.execute(
                    "INSERT OR IGNORE INTO meta VALUES ('digest', ?)",
                    (self.digest,),
                )
                row = self._conn.execute(
                    "SELECT value FROM meta WHERE key='digest'"
                ).fetchone()
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

    # Explicit IMMEDIATE transactions: every read-modify-write below is
    # atomic against other processes (SQLite serializes writers) and
    # other threads (the lock serializes this connection).
    def _begin(self):
        self._conn.execute("BEGIN IMMEDIATE")
        return self._conn

    def enroll(self, shards, done=()) -> None:
        done = set(done)
        with self._lock:
            conn = self._begin()
            try:
                conn.executemany(
                    "INSERT OR IGNORE INTO shards (shard) VALUES (?)",
                    [(int(shard),) for shard in shards],
                )
                if done:
                    conn.executemany(
                        "UPDATE shards SET state='done', worker=NULL,"
                        " token=NULL, expires=NULL WHERE shard=?",
                        [(int(shard),) for shard in done],
                    )
                conn.execute("COMMIT")
            except BaseException:
                conn.execute("ROLLBACK")
                raise

    def _reclaim_locked(self, now: float) -> list:
        rows = self._conn.execute(
            "SELECT shard FROM shards WHERE state='leased' AND expires < ?",
            (now,),
        ).fetchall()
        if rows:
            self._conn.execute(
                "UPDATE shards SET state='open', worker=NULL, token=NULL,"
                " expires=NULL WHERE state='leased' AND expires < ?",
                (now,),
            )
        return [row[0] for row in rows]

    def claim(self, worker: str) -> "Lease | None":
        fault_point("queue.claim", worker)
        now = time.time()
        with self._lock:
            conn = self._begin()
            try:
                reclaimed = self._reclaim_locked(now)
                row = conn.execute(
                    "SELECT shard FROM shards WHERE state='open'"
                    " ORDER BY shard LIMIT 1"
                ).fetchone()
                if row is None:
                    conn.execute("COMMIT")
                    self._record_reclaim(reclaimed)
                    return None
                token = os.urandom(8).hex()
                expires = now + self.lease_ttl
                conn.execute(
                    "UPDATE shards SET state='leased', worker=?, token=?,"
                    " expires=?, claims=claims+1 WHERE shard=?",
                    (worker, token, expires, row[0]),
                )
                conn.execute("COMMIT")
            except BaseException:
                conn.execute("ROLLBACK")
                raise
        self._record_reclaim(reclaimed)
        lease = Lease(shard=row[0], worker=worker, token=token, expires=expires)
        self._record_claim(lease)
        return lease

    def heartbeat(self, lease: Lease) -> "Lease | None":
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

    def fail(self, lease: Lease) -> str:
        with self._lock:
            conn = self._begin()
            try:
                row = conn.execute(
                    "SELECT failures FROM shards WHERE shard=? AND token=?"
                    " AND state='leased'",
                    (lease.shard, lease.token),
                ).fetchone()
                if row is None:
                    conn.execute("COMMIT")
                    _telemetry().count("campaign.lease.lost")
                    return "lost"
                try:
                    workers = json.loads(row[0] or "[]")
                except json.JSONDecodeError:
                    workers = []
                workers.append(lease.worker)
                state = (
                    "quarantined" if self._should_quarantine(workers) else "open"
                )
                conn.execute(
                    "UPDATE shards SET state=?, worker=NULL, token=NULL,"
                    " expires=NULL, failures=? WHERE shard=? AND token=?",
                    (state, json.dumps(workers), lease.shard, lease.token),
                )
                conn.execute("COMMIT")
            except BaseException:
                conn.execute("ROLLBACK")
                raise
        self._record_fail(lease, state)
        return state

    def quarantined(self) -> list:
        with self._lock:
            rows = self._conn.execute(
                "SELECT shard FROM shards WHERE state='quarantined'"
                " ORDER BY shard"
            ).fetchall()
        return [row[0] for row in rows]

    def done_shards(self) -> list:
        with self._lock:
            rows = self._conn.execute(
                "SELECT shard FROM shards WHERE state='done' ORDER BY shard"
            ).fetchall()
        return [row[0] for row in rows]

    def reset(self, shards) -> list:
        shards = [int(shard) for shard in shards]
        reset = []
        with self._lock:
            conn = self._begin()
            try:
                for shard in shards:
                    cursor = conn.execute(
                        "UPDATE shards SET state='open', worker=NULL,"
                        " token=NULL, expires=NULL, failures='[]'"
                        " WHERE shard=? AND state IN ('done', 'quarantined')",
                        (shard,),
                    )
                    if cursor.rowcount == 1:
                        reset.append(shard)
                conn.execute("COMMIT")
            except BaseException:
                conn.execute("ROLLBACK")
                raise
        if reset:
            _telemetry().count("campaign.queue.reset", len(reset))
        return reset

    def release(self, lease: Lease) -> None:
        fault_point("queue.release", lease.shard)
        with self._lock:
            self._conn.execute(
                "UPDATE shards SET state='open', worker=NULL, token=NULL,"
                " expires=NULL WHERE shard=? AND token=? AND state='leased'",
                (lease.shard, lease.token),
            )
        _telemetry().count("campaign.lease.released")

    def reclaim(self) -> list:
        now = time.time()
        with self._lock:
            conn = self._begin()
            try:
                reclaimed = self._reclaim_locked(now)
                conn.execute("COMMIT")
            except BaseException:
                conn.execute("ROLLBACK")
                raise
        self._record_reclaim(reclaimed)
        return reclaimed

    def snapshot(self) -> dict:
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
            quarantined = [
                row[0]
                for row in self._conn.execute(
                    "SELECT shard FROM shards WHERE state='quarantined'"
                    " ORDER BY shard"
                ).fetchall()
            ]
        snapshot = {
            "backend": self.backend,
            "open": counts.get("open", 0),
            "leased": counts.get("leased", 0),
            "done": counts.get("done", 0),
            "quarantined": counts.get("quarantined", 0),
            "quarantined_shards": quarantined,
            "leases": [
                {
                    "shard": shard,
                    "worker": worker,
                    "expires_in": round(expires - now, 3),
                }
                for shard, worker, expires in leases
            ],
        }
        self._publish_gauges(snapshot)
        return snapshot


class FileLeaseWorkQueue(WorkQueue):
    """Lease files + done markers: the shared-filesystem fallback.

    Layout under ``directory``::

        digest.json             campaign identity (write-once)
        shards.json             the enrolled shard universe (write-once)
        lease-0007.json         live lease: {worker, token, expires}
        done-0007.marker        completion marker (empty, write-once)
        failed-0007.json        failure history: {workers: [...]}
        quarantined-0007.marker quarantine marker (empty, write-once)

    ``open`` is the *absence* of marker and lease files — there is no
    mutable row, so the only atomic primitives needed are ``O_EXCL``
    create and ``rename``, which even NFS gets right.  The failure
    history is the one read-modify-write file; two workers failing the
    same shard simultaneously can lose one increment, which costs at
    most one extra retry before quarantine — never correctness.
    """

    backend = "file"

    def __init__(
        self,
        directory,
        digest: str,
        lease_ttl: float = DEFAULT_LEASE_TTL,
        quarantine_after: int = DEFAULT_QUARANTINE_AFTER,
    ) -> None:
        super().__init__(digest, lease_ttl, quarantine_after)
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._shards: "list[int]" = []
        digest_path = self.directory / "digest.json"
        try:
            with open(digest_path, "x", encoding="utf-8") as handle:
                json.dump({"digest": digest}, handle)
        except FileExistsError:
            found = json.loads(digest_path.read_text()).get("digest")
            if found != digest:
                raise QueueError(
                    f"{self.directory} coordinates campaign "
                    f"{str(found)[:12]}, refusing to serve {digest[:12]}"
                ) from None
        shards_path = self.directory / "shards.json"
        if shards_path.is_file():
            self._shards = sorted(json.loads(shards_path.read_text()))

    def _lease_path(self, shard: int) -> Path:
        return self.directory / f"lease-{shard:04d}.json"

    def _done_path(self, shard: int) -> Path:
        return self.directory / f"done-{shard:04d}.marker"

    def _failed_path(self, shard: int) -> Path:
        return self.directory / f"failed-{shard:04d}.json"

    def _quarantined_path(self, shard: int) -> Path:
        return self.directory / f"quarantined-{shard:04d}.marker"

    def enroll(self, shards, done=()) -> None:
        universe = sorted(set(self._shards) | {int(s) for s in shards})
        if universe != self._shards:
            self._shards = universe
            shards_path = self.directory / "shards.json"
            try:
                with open(shards_path, "x", encoding="utf-8") as handle:
                    json.dump(universe, handle)
            except FileExistsError:
                merged = sorted(
                    set(json.loads(shards_path.read_text())) | set(universe)
                )
                self._shards = merged
        for shard in done:
            self._mark_done(int(shard))

    def _mark_done(self, shard: int) -> bool:
        try:
            with open(self._done_path(shard), "x", encoding="utf-8"):
                pass
            return True
        except FileExistsError:
            return False

    def _read_lease(self, shard: int) -> "dict | None":
        try:
            return json.loads(self._lease_path(shard).read_text())
        except (FileNotFoundError, json.JSONDecodeError, OSError):
            # A torn or vanished lease reads as claimable; O_EXCL on
            # the still-present file arbitrates the actual claim.
            return None

    def _try_reclaim(self, shard: int, lease: dict) -> bool:
        """Tombstone-rename a stale lease; ``True`` if this caller won."""
        tombstone = self.directory / (
            f".reclaim-{shard:04d}-{lease.get('token', 'torn')}.tmp"
        )
        try:
            os.rename(self._lease_path(shard), tombstone)
        except OSError:
            return False  # another reclaimer (or the owner) got there first
        try:
            os.unlink(tombstone)
        except OSError:
            pass
        return True

    def _try_claim(self, shard: int, worker: str, now: float) -> "Lease | None":
        token = os.urandom(8).hex()
        expires = now + self.lease_ttl
        payload = json.dumps(
            {"worker": worker, "token": token, "expires": expires}
        )
        try:
            with open(self._lease_path(shard), "x", encoding="utf-8") as handle:
                handle.write(payload)
        except FileExistsError:
            return None
        return Lease(shard=shard, worker=worker, token=token, expires=expires)

    def claim(self, worker: str) -> "Lease | None":
        fault_point("queue.claim", worker)
        now = time.time()
        reclaimed = []
        for shard in self._shards:
            if self._done_path(shard).is_file():
                continue
            if self._quarantined_path(shard).is_file():
                continue
            lease = self._try_claim(shard, worker, now)
            if lease is None:
                held = self._read_lease(shard)
                if held is not None and held.get("expires", 0) >= now:
                    continue  # live lease (or fresh enough to respect)
                if held is None or not self._try_reclaim(shard, held):
                    continue
                reclaimed.append(shard)
                lease = self._try_claim(shard, worker, now)
                if lease is None:
                    continue  # lost the post-reclaim race; move on
            if self._done_path(shard).is_file():
                # The shard completed between our done-check and the
                # O_EXCL claim (complete() creates the marker before
                # unlinking its lease, so the marker is authoritative).
                try:
                    os.unlink(self._lease_path(shard))
                except OSError:
                    pass
                continue
            self._record_reclaim(reclaimed)
            self._record_claim(lease)
            return lease
        self._record_reclaim(reclaimed)
        return None

    def heartbeat(self, lease: Lease) -> "Lease | None":
        held = self._read_lease(lease.shard)
        if held is None or held.get("token") != lease.token:
            _telemetry().count("campaign.lease.lost")
            return None
        expires = time.time() + self.lease_ttl
        payload = json.dumps(
            {"worker": lease.worker, "token": lease.token, "expires": expires}
        )
        # Atomic replace: a reader always sees a whole lease, and a
        # concurrent reclaimer's rename either beats this replace (we
        # report lost on the next renewal) or loses cleanly.
        from ..fsutil import atomic_write_text

        atomic_write_text(self._lease_path(lease.shard), payload)
        _telemetry().count("campaign.lease.heartbeat")
        return Lease(lease.shard, lease.worker, lease.token, expires)

    def complete(self, lease: Lease) -> bool:
        held = self._read_lease(lease.shard)
        owned = held is not None and held.get("token") == lease.token
        first = self._mark_done(lease.shard)
        if not first:
            _telemetry().count("campaign.complete.duplicate")
        if owned:
            try:
                os.unlink(self._lease_path(lease.shard))
            except OSError:
                pass
            _telemetry().count("campaign.lease.completed")
            return True
        _telemetry().count("campaign.lease.lost")
        return False

    def fail(self, lease: Lease) -> str:
        held = self._read_lease(lease.shard)
        if held is None or held.get("token") != lease.token:
            _telemetry().count("campaign.lease.lost")
            return "lost"
        failed_path = self._failed_path(lease.shard)
        try:
            workers = json.loads(failed_path.read_text()).get("workers", [])
        except (FileNotFoundError, json.JSONDecodeError, OSError):
            workers = []
        workers.append(lease.worker)
        from ..fsutil import atomic_write_text

        atomic_write_text(failed_path, json.dumps({"workers": workers}))
        outcome = "open"
        if self._should_quarantine(workers):
            outcome = "quarantined"
            try:
                with open(self._quarantined_path(lease.shard), "x"):
                    pass
            except FileExistsError:
                pass
        try:
            os.unlink(self._lease_path(lease.shard))
        except OSError:
            pass
        self._record_fail(lease, outcome)
        return outcome

    def quarantined(self) -> list:
        return sorted(
            shard
            for shard in self._shards
            if self._quarantined_path(shard).is_file()
        )

    def done_shards(self) -> list:
        return sorted(
            shard for shard in self._shards if self._done_path(shard).is_file()
        )

    def reset(self, shards) -> list:
        reset = []
        for shard in shards:
            shard = int(shard)
            hit = False
            for path in (
                self._done_path(shard),
                self._quarantined_path(shard),
                self._failed_path(shard),
            ):
                try:
                    os.unlink(path)
                    hit = True
                except OSError:
                    pass
            if hit:
                reset.append(shard)
        if reset:
            _telemetry().count("campaign.queue.reset", len(reset))
        return reset

    def release(self, lease: Lease) -> None:
        fault_point("queue.release", lease.shard)
        held = self._read_lease(lease.shard)
        if held is not None and held.get("token") == lease.token:
            try:
                os.unlink(self._lease_path(lease.shard))
            except OSError:
                pass
        _telemetry().count("campaign.lease.released")

    def reclaim(self) -> list:
        now = time.time()
        reclaimed = []
        for shard in self._shards:
            if self._done_path(shard).is_file():
                continue
            if self._quarantined_path(shard).is_file():
                continue
            held = self._read_lease(shard)
            if held is None or held.get("expires", 0) >= now:
                continue
            if self._try_reclaim(shard, held):
                reclaimed.append(shard)
        self._record_reclaim(reclaimed)
        return reclaimed

    def snapshot(self) -> dict:
        now = time.time()
        leases = []
        done = 0
        quarantined = []
        for shard in self._shards:
            if self._done_path(shard).is_file():
                done += 1
                continue
            if self._quarantined_path(shard).is_file():
                quarantined.append(shard)
                continue
            held = self._read_lease(shard)
            if held is not None:
                leases.append(
                    {
                        "shard": shard,
                        "worker": held.get("worker"),
                        "expires_in": round(held.get("expires", 0) - now, 3),
                    }
                )
        snapshot = {
            "backend": self.backend,
            "open": len(self._shards) - done - len(leases) - len(quarantined),
            "leased": len(leases),
            "done": done,
            "quarantined": len(quarantined),
            "quarantined_shards": quarantined,
            "leases": leases,
        }
        self._publish_gauges(snapshot)
        return snapshot


def open_queue(
    directory,
    digest: str,
    *,
    backend: str = "sqlite",
    lease_ttl: float = DEFAULT_LEASE_TTL,
    quarantine_after: int = DEFAULT_QUARANTINE_AFTER,
) -> WorkQueue:
    """The campaign directory's work queue under ``directory``/queue.

    ``backend="sqlite"`` (default) and ``backend="file"`` coexist in
    the same campaign directory but do **not** share lease state — all
    cooperating workers of one campaign must agree on the backend (the
    coordinator advertises its choice to joiners).
    """
    if backend not in BACKENDS:
        raise QueueError(
            f"unknown queue backend {backend!r}; expected one of {BACKENDS}"
        )
    root = Path(directory)
    if backend == "sqlite":
        return SQLiteWorkQueue(
            root / "queue.sqlite", digest, lease_ttl, quarantine_after
        )
    return FileLeaseWorkQueue(root / "queue", digest, lease_ttl, quarantine_after)
