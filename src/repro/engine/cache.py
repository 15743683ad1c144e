"""Content-addressed, relabeling-invariant verdict cache.

Oscillation verdicts are expensive (bounded exhaustive search) but
deterministic: the same instance *content*, model, and search bounds
always produce the same :class:`~repro.engine.explorer.ExplorationResult`.
This module memoizes them on disk so a 24-model certification sweep
re-run after an analysis tweak costs milliseconds instead of minutes.

**Key derivation.**  :func:`verdict_key` is the sha256 of a sorted JSON
payload containing: :data:`CACHE_VERSION`, the explorer's
:data:`~repro.engine.explorer.ENGINE_REVISION`, the reducer's
:data:`~repro.engine.reduction.REDUCTION_REVISION`, the instance's
relabeling-invariant :func:`~repro.core.canonical.canonical_hash`, the
model name, and every bound that can change the verdict or its
accounting (``queue_bound``, ``max_states``, ``reliable_twin_first``,
``reduction``).  Bumping any revision constant invalidates every stale
entry by construction — the cache never needs a migration step.  The
``engine`` choice is deliberately *not* part of the key: the
differential tests pin the packed engine bit-identical to the reference
on trivial-symmetry instances and verdict-equal with monotone
completeness on symmetric ones, so cached results are interchangeable
across engines.  Because the instance key is the
canonical hash, a renamed copy of a cached gadget hits the same entry;
stored witnesses are encoded in canonical-index space and translated
back into the requesting instance's node names on load.

**Storage.**  One SQLite table ``verdicts (key TEXT PRIMARY KEY,
payload TEXT NOT NULL)`` in ``<root>/verdicts.sqlite`` (default root
``.repro-cache``, or ``REPRO_CACHE_DIR``), opened through
:mod:`repro.sqlstore` like the campaign work queue.  A row holds the
canonical JSON text of one payload and is written once (``INSERT OR
IGNORE``): racing writers of a key carry identical text.  Keys are
read with one ``SELECT`` and rows written in one transaction per batch
(:meth:`VerdictCache.get_many`, :meth:`VerdictCache.put_many`).  Nothing
is opened, nor :mod:`sqlite3` imported, until the first read or write,
and a forked pool worker opens its own connection.

**Integrity and degradation.**  A row that fails :func:`payload_issue`
(unparseable, checksum mismatch, stale :data:`CACHE_VERSION`) is
deleted — only while it still holds the text that was read — counted
as ``cache.quarantined``, and recomputed.  Any ``OSError`` or SQLite
error (a junk ``verdicts.sqlite`` included) turns a read into misses
and a write into a memo-only store of its whole batch, counted as
``cache.io_error``: a broken cache directory can slow a campaign down
but cannot abort it.

**Hot tier.**  Entries that have been verified once (checksum checked
on first disk read, or produced by this process) are kept in a bounded
in-memory LRU memo, so a repeat read skips disk I/O, JSON parsing, and
sha256 verification entirely.  The bound defaults to
:data:`DEFAULT_MEMO_ENTRIES` and can be tuned per cache via the
``memo_entries`` constructor argument or globally via the
``REPRO_CACHE_MEMO`` environment variable (``0`` disables the tier).
Memory hits and evictions are counted (``mem_hits`` /
``mem_evictions``, telemetry ``cache.mem_hit`` / ``cache.mem_evicted``).
:func:`shared_cache` returns a process-wide cache per directory so
in-process worker pools and the serving tier share one hot tier.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from collections import OrderedDict
from functools import partial
from pathlib import Path

from ..core.canonical import canonical_hash, canonical_labeling
from ..core.spp import SPPInstance
from ..faults import fault_point
from ..fsutil import quarantine_on_repair
from ..obs import active as _telemetry
from ..obs import trace_span
from .activation import ActivationEntry
from .explorer import ENGINE_REVISION, ExplorationResult, OscillationWitness
from .reduction import REDUCTION_REVISION
from .serialization import _decode_count, _encode_count

__all__ = [
    "CACHE_VERSION",
    "DEFAULT_CACHE_DIR",
    "DEFAULT_MEMO_ENTRIES",
    "VerdictCache",
    "as_cache",
    "audit",
    "is_cache_root",
    "payload_checksum",
    "payload_issue",
    "result_from_payload",
    "result_to_payload",
    "shared_cache",
    "verdict_key",
]

#: Bumped whenever the on-disk payload format changes.
#: 2: payload sha256 ``checksum`` field (PR 5 storage hardening).
CACHE_VERSION = 2

#: Default cache root (relative to the current working directory).
DEFAULT_CACHE_DIR = ".repro-cache"

#: Default bound on the in-memory hot tier (verified payloads kept
#: resident).  Verdict payloads without witnesses are a few hundred
#: bytes, so the default costs at most a few MB.
DEFAULT_MEMO_ENTRIES = 4096

#: Environment variable overriding :data:`DEFAULT_MEMO_ENTRIES`.
MEMO_ENV_VAR = "REPRO_CACHE_MEMO"


def payload_checksum(payload: dict) -> str:
    """sha256 over the canonical JSON of ``payload`` sans ``checksum``."""
    blob = json.dumps(
        {k: v for k, v in payload.items() if k != "checksum"},
        separators=(",", ":"),
        sort_keys=True,
        allow_nan=False,
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _is_current(payload: dict) -> bool:
    return payload.get("cache_version") == CACHE_VERSION


def payload_issue(payload) -> "str | None":
    """Why a cache-entry payload cannot be trusted, or ``None`` if it can.

    The one definition of a trustworthy entry — a JSON object of the
    current :data:`CACHE_VERSION` whose ``checksum`` matches — shared by
    the disk tier, the wire decoder and :func:`audit`.
    """
    if not isinstance(payload, dict):
        return "corrupt entry (not a JSON object)"
    if not _is_current(payload):
        return (
            f"stale cache_version {payload.get('cache_version')!r} "
            f"(current {CACHE_VERSION})"
        )
    if payload.get("checksum") != payload_checksum(payload):
        return "payload checksum mismatch (bit rot or torn write)"
    return None


def _parse_entry(raw: bytes) -> "tuple[object, str | None]":
    """The decoded bytes of a stored row, and why they cannot be trusted."""
    try:
        payload = json.loads(raw.decode("utf-8"))
    except ValueError as error:  # JSONDecodeError, UnicodeDecodeError
        return None, f"corrupt entry ({error})"
    return payload, payload_issue(payload)


def verdict_key(
    instance: SPPInstance,
    model_name: str,
    *,
    queue_bound: int,
    max_states: int,
    reliable_twin_first: bool,
    reduction: str,
) -> str:
    """The content address of one (instance, model, bounds) verdict."""
    payload = {
        "cache_version": CACHE_VERSION,
        "engine_revision": ENGINE_REVISION,
        "reduction_revision": REDUCTION_REVISION,
        "instance": canonical_hash(instance),
        "model": model_name,
        "queue_bound": queue_bound,
        "max_states": max_states,
        "reliable_twin_first": bool(reliable_twin_first),
        "reduction": reduction,
    }
    blob = json.dumps(payload, separators=(",", ":"), sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Witness translation: node names <-> canonical indices.

def _entry_to_jsonable(entry: ActivationEntry, index: dict) -> dict:
    data = {
        "nodes": sorted(index[node] for node in entry.nodes),
        "reads": sorted(
            ([index[u], index[v]], _encode_count(count))
            for (u, v), count in entry.reads.items()
        ),
    }
    drops = sorted(
        ([index[u], index[v]], sorted(dropped))
        for (u, v), dropped in entry.drops.items()
        if dropped
    )
    if drops:
        data["drops"] = drops
    return data


def _entry_from_jsonable(data: dict, ordering: tuple) -> ActivationEntry:
    reads = {
        (ordering[u], ordering[v]): _decode_count(count)
        for (u, v), count in data["reads"]
    }
    drops = {
        (ordering[u], ordering[v]): frozenset(indices)
        for (u, v), indices in data.get("drops", [])
    }
    return ActivationEntry(
        nodes=[ordering[i] for i in data["nodes"]],
        channels=list(reads),
        reads=reads,
        drops=drops,
    )


def _witness_to_jsonable(witness: OscillationWitness, index: dict) -> dict:
    return {
        "prefix": [_entry_to_jsonable(e, index) for e in witness.prefix],
        "cycle": [_entry_to_jsonable(e, index) for e in witness.cycle],
        "assignments": [
            [[index[node], [index[hop] for hop in path]] for node, path in pi]
            for pi in witness.assignments
        ],
    }


def _witness_from_jsonable(data: dict, ordering: tuple) -> OscillationWitness:
    return OscillationWitness(
        prefix=tuple(_entry_from_jsonable(e, ordering) for e in data["prefix"]),
        cycle=tuple(_entry_from_jsonable(e, ordering) for e in data["cycle"]),
        assignments=tuple(
            tuple(
                (ordering[node], tuple(ordering[hop] for hop in path))
                for node, path in pi
            )
            for pi in data["assignments"]
        ),
    )


def _result_to_jsonable(result: ExplorationResult, instance: SPPInstance) -> dict:
    index = {node: i for i, node in enumerate(canonical_labeling(instance))}
    return {
        "cache_version": CACHE_VERSION,
        "model_name": result.model_name,
        "oscillates": result.oscillates,
        "complete": result.complete,
        "states_explored": result.states_explored,
        "truncated_states": result.truncated_states,
        "states_pruned": result.states_pruned,
        "witness": (
            None
            if result.witness is None
            else _witness_to_jsonable(result.witness, index)
        ),
    }


def _result_from_jsonable(data: dict, instance: SPPInstance) -> ExplorationResult:
    ordering = canonical_labeling(instance)
    witness = data.get("witness")
    return ExplorationResult(
        model_name=data["model_name"],
        instance_name=instance.name,
        oscillates=data["oscillates"],
        complete=data["complete"],
        states_explored=data["states_explored"],
        truncated_states=data["truncated_states"],
        states_pruned=data.get("states_pruned", 0),
        witness=(
            None if witness is None else _witness_from_jsonable(witness, ordering)
        ),
    )


def result_to_payload(result: ExplorationResult, instance: SPPInstance) -> dict:
    """The checksummed cache-entry payload for ``result``.

    This is exactly the JSON object the disk store would hold for the
    verdict — canonical-index witnesses, ``cache_version``, and a
    ``checksum`` field — so it can travel over the wire and be decoded
    on the other side with :func:`result_from_payload`.
    """
    payload = _result_to_jsonable(result, instance)
    payload["checksum"] = payload_checksum(payload)
    return payload


def result_from_payload(payload: dict, instance: SPPInstance) -> ExplorationResult:
    """Decode a checksummed cache-entry payload for ``instance``.

    Raises :class:`ValueError` on an untrustworthy
    (:func:`payload_issue`) or structurally malformed payload; never
    returns a partially decoded result.
    """
    issue = payload_issue(payload)
    if issue is not None:
        raise ValueError(issue)
    try:
        return _result_from_jsonable(payload, instance)
    except (KeyError, IndexError, TypeError) as exc:
        raise ValueError(f"malformed verdict payload: {exc}") from exc


# ----------------------------------------------------------------------
# The store: one table in ``<root>/verdicts.sqlite``.

_STORE = "verdicts.sqlite"
_SCHEMA = (
    "CREATE TABLE IF NOT EXISTS verdicts "
    "(key TEXT PRIMARY KEY, payload TEXT NOT NULL)"
)
_SELECT = "SELECT key, payload FROM verdicts WHERE key IN ({})"
_INSERT = "INSERT OR IGNORE INTO verdicts (key, payload) VALUES (?, ?)"
# Compare-and-delete on the bytes that were read.
_DELETE_IF = "DELETE FROM verdicts WHERE key=? AND CAST(payload AS BLOB)=?"

# Connections a forked child inherited.  They stay referenced, never
# closed: closing a parent's SQLite connection in a child can disturb
# the parent's locks.
_INHERITED: list = []


def _encode(payload: dict) -> str:
    """The canonical JSON text a row holds for ``payload``."""
    return json.dumps(payload, separators=(",", ":"), sort_keys=True, allow_nan=False)


def _connect(path: Path, *, timeout: float, wal: bool = True):
    """A connection to the store at ``path`` that reads text columns as
    bytes: a rotted row need not even be valid UTF-8."""
    from .. import sqlstore  # sqlite3 loads with the first store access

    conn = sqlstore.connect(path, timeout=timeout, wal=wal)
    conn.text_factory = bytes
    return conn


def _select(keys: list, conn) -> list:
    """``(key, raw payload)`` of every stored row among ``keys``."""
    rows = conn.execute(_SELECT.format(",".join("?" * len(keys))), keys)
    return [(key.decode("ascii"), raw) for key, raw in rows]


def _insert(rows: list, conn) -> int:
    """Insert the ``(key, text)`` rows in one transaction (the
    ``cache.write`` fault site sees each text); returns how many were new."""
    from .. import sqlstore

    with sqlstore.transaction(conn):
        return sum(
            conn.execute(_INSERT, (key, fault_point("cache.write", text))).rowcount
            for key, text in rows
        )


def is_cache_root(root) -> bool:
    """Whether ``root`` is a verdict-cache root: it holds the store, or
    is named like :data:`DEFAULT_CACHE_DIR`."""
    root = Path(root)
    return (root / _STORE).is_file() or root.name == DEFAULT_CACHE_DIR


def audit(root, *, repair: bool = False) -> "tuple[int, list]":
    """Check the cache store at ``root`` the way a lookup would read it.

    Returns ``(healthy, issues)``: the number of rows a lookup would
    serve, and ``(severity, category, path, detail, repair)`` tuples
    with ``path`` relative to ``root``.  A row that fails
    :func:`payload_issue` is an error (a stale version only a warning),
    ``"removed"`` when ``repair`` is set, as a lookup would remove it.
    A store that cannot be read at all is an error, set aside into
    ``<root>/quarantine/`` when ``repair`` is set.
    """
    from .. import sqlstore

    root = Path(root)
    path = root / _STORE
    if not path.is_file():
        return 0, [
            ("info", "cache.empty", _STORE, "no store (cache never written)", None)
        ]
    healthy, issues, bad = 0, [], []
    try:
        conn = _connect(path, timeout=5.0, wal=False)
        try:
            rows = conn.execute(
                "SELECT rowid, key, payload FROM verdicts ORDER BY key"
            ).fetchall()
            for rowid, key, raw in rows:
                payload, issue = _parse_entry(raw)
                if issue is None:
                    healthy += 1
                    continue
                # An entry of another format version is obsolete, not damaged.
                stale = isinstance(payload, dict) and not _is_current(payload)
                bad.append((rowid, raw))
                issues.append((
                    "warning" if stale else "error", "cache.entry", _STORE,
                    f"entry {key.decode('utf-8', 'replace')}: {issue}",
                    "removed" if repair else None,
                ))
            if repair and bad:
                conn.executemany(
                    "DELETE FROM verdicts WHERE rowid=? AND CAST(payload AS BLOB)=?",
                    bad,
                )
        finally:
            conn.close()
    except sqlstore.Error as error:
        return 0, [(
            "error", "cache.store", _STORE, f"unreadable store ({error})",
            quarantine_on_repair(root, path, repair),
        )]
    return healthy, issues


# ----------------------------------------------------------------------

class VerdictCache:
    """A store of memoized exploration results under ``root``.

    Safe to share between processes: rows are write-once and every
    process uses its own connection.  A bounded in-process LRU memo
    keeps verified-once payloads resident so hot keys skip the store,
    JSON parsing, and checksum verification on repeat reads; it and the
    connection are each guarded by a lock, so one cache object can
    serve many threads.
    """

    def __init__(
        self,
        root: "str | os.PathLike | None" = None,
        *,
        memo_entries: "int | None" = None,
    ) -> None:
        if root is None:
            root = os.environ.get("REPRO_CACHE_DIR") or DEFAULT_CACHE_DIR
        if memo_entries is None:
            raw = os.environ.get(MEMO_ENV_VAR)
            memo_entries = DEFAULT_MEMO_ENTRIES if not raw else int(raw)
        if memo_entries < 0:
            raise ValueError("memo_entries must be non-negative")
        self.root = Path(root)
        self.memo_entries = memo_entries
        self._memo: "OrderedDict[str, dict]" = OrderedDict()
        self._lock = threading.Lock()
        # The store connection, opened on first use by process _pid.
        self._db_lock = threading.Lock()
        self._conn = None
        self._pid = None
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.quarantined = 0
        self.io_errors = 0
        self.mem_hits = 0
        self.mem_evictions = 0

    # -- hot tier -------------------------------------------------------
    def peek_memo(self, key: str) -> "dict | None":
        """The memoized payload for ``key``, if resident (no store I/O)."""
        with self._lock:
            payload = self._memo.get(key)
            if payload is not None:
                self._memo.move_to_end(key)
            return payload

    def remember(self, key: str, payload: dict) -> None:
        """Admit a *verified* payload to the bounded in-memory hot tier."""
        if self.memo_entries == 0:
            return
        evicted = 0
        with self._lock:
            self._memo[key] = payload
            self._memo.move_to_end(key)
            while len(self._memo) > self.memo_entries:
                self._memo.popitem(last=False)
                evicted += 1
            self.mem_evictions += evicted
        if evicted:
            _telemetry().count("cache.mem_evicted", evicted)

    # -- the store --------------------------------------------------------
    def _with_store(self, use, *, create: bool = False):
        """``use(connection)`` under the connection lock, or ``None``
        when the store does not exist and ``create`` is false.  Any
        SQLite error is raised as :class:`OSError`, so every caller
        degrades on one exception type."""
        from .. import sqlstore

        try:
            with self._db_lock:
                if self._pid != os.getpid():
                    path = self.root / _STORE
                    if not (create or path.is_file()):
                        return None
                    self.root.mkdir(parents=True, exist_ok=True)
                    conn = _connect(path, timeout=30.0)
                    # A lost cache row is recomputed, so the WAL need
                    # not be synced on every commit.
                    conn.execute("PRAGMA synchronous=NORMAL")
                    conn.execute(_SCHEMA)
                    if self._conn is not None:
                        _INHERITED.append(self._conn)
                    self._conn, self._pid = conn, os.getpid()
                return use(self._conn)
        except sqlstore.Error as error:
            raise OSError(f"verdict store {self.root}: {error}") from error

    def _discard(self, key: str, raw: bytes) -> None:
        """Forget an unusable entry and delete its row — only while it
        still holds ``raw``, so a healthy row written since survives."""
        with self._lock:
            self._memo.pop(key, None)
        try:
            self._with_store(lambda conn: conn.execute(_DELETE_IF, (key, raw)))
        except OSError:
            pass  # the next read finds the same row and recomputes again
        self.quarantined += 1
        _telemetry().count("cache.quarantined")

    # -- core operations ------------------------------------------------
    def get(self, key: str, instance: SPPInstance) -> "ExplorationResult | None":
        """The cached result for ``key``, re-labeled for ``instance``."""
        return self.get_many([key], instance)[0]

    def get_many(self, keys, instance: SPPInstance) -> list:
        """The cached result for each of ``keys`` (``None`` where there
        is none), re-labeled for ``instance``."""
        return [result for result, _ in self._lookup(keys, instance)]

    def get_payload(self, key: str) -> "tuple[dict | None, str]":
        """The verified raw payload for ``key`` plus the tier that served it.

        Returns ``(payload, tier)`` with ``tier`` one of ``"memory"``
        (hot-tier hit: no store I/O, parse, or checksum work),
        ``"disk"`` (read, parsed, and verified from the store — now
        memoized), or ``"miss"`` (``payload is None``).  Maintains the
        same hit/miss accounting as :meth:`get`.
        """
        return self._lookup([key])[0]

    def _lookup(self, keys, instance=None) -> list:
        """``(value, tier)`` for each of ``keys``, counted as a hit or a
        miss: the verified payload, or the result decoded for
        ``instance``.  The memo answers what it holds and one store
        read the rest; a payload is verified before it is memoized."""
        tel = _telemetry()
        found: dict = {}
        with trace_span("cache.get"):
            for key in keys:
                payload = self.peek_memo(key)
                if payload is not None:
                    self.mem_hits += 1
                    tel.count("cache.mem_hit")
                    found[key] = (payload, "memory")
            rest = [key for key in dict.fromkeys(keys) if key not in found]
            stored: list = []
            if rest:
                try:
                    fault_point("cache.read", rest)
                    stored = self._with_store(partial(_select, rest)) or []
                except OSError:  # rows left alone: they may be healthy later
                    self.io_errors += 1
                    tel.count("cache.io_error")
            for key, raw in stored:
                payload, issue = _parse_entry(raw)
                if issue is not None:  # deleted, so the slot can refill
                    self._discard(key, raw)
                    continue
                self.remember(key, payload)
                found[key] = (payload, "disk")
            answers = []
            for key in keys:
                value, tier = found.get(key, (None, "miss"))
                if value is not None and instance is not None:
                    try:
                        value = _result_from_jsonable(value, instance)
                    except (KeyError, IndexError, TypeError, ValueError):
                        self._discard(key, _encode(value).encode("utf-8"))
                        value, tier = None, "miss"
                if value is None:
                    self.misses += 1
                    tel.count("cache.miss")
                else:
                    self.hits += 1
                    tel.count("cache.hit")
                answers.append((value, tier))
        return answers

    def put(self, key: str, instance: SPPInstance, result: ExplorationResult) -> None:
        """Store ``result`` under ``key`` (no-op if already present)."""
        self.put_many([(key, result)], instance)

    def put_many(self, rows, instance: SPPInstance) -> None:
        """Store each ``(key, result)`` of ``rows`` in one transaction
        (present keys are left as they are).  A failed write stores no
        row of the batch and degrades to the in-process memo — a broken
        cache directory never aborts the computation."""
        tel = _telemetry()
        with trace_span("cache.put"):
            texts = []
            for key, result in rows:
                payload = result_to_payload(result, instance)
                self.remember(key, payload)
                texts.append((key, _encode(payload)))
            try:
                inserted = self._with_store(partial(_insert, texts), create=True)
            except OSError:
                self.io_errors += 1
                tel.count("cache.io_error")
                return
        if inserted:
            self.writes += inserted
            tel.count("cache.write", inserted)

    # -- maintenance ----------------------------------------------------
    def stats(self) -> dict:
        """Entry count / payload bytes in the store plus this process's
        hit rate."""
        try:
            row = self._with_store(lambda conn: conn.execute(
                "SELECT COUNT(*), SUM(LENGTH(CAST(payload AS BLOB))) FROM verdicts"
            ).fetchone())
        except OSError:
            row = None
        entries, total_bytes = row or (0, 0)
        with self._lock:
            memo_resident = len(self._memo)
        return {
            "root": str(self.root),
            "entries": entries,
            "bytes": total_bytes or 0,
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "quarantined": self.quarantined,
            "io_errors": self.io_errors,
            "mem_hits": self.mem_hits,
            "mem_evictions": self.mem_evictions,
            "memo_entries": self.memo_entries,
            "memo_resident": memo_resident,
        }

    def clear(self) -> int:
        """Delete every cached verdict; returns the number removed."""
        cursor = self._with_store(lambda conn: conn.execute("DELETE FROM verdicts"))
        with self._lock:
            self._memo.clear()
        return 0 if cursor is None else cursor.rowcount


# Process-wide registry for shared_cache(): one VerdictCache (and thus
# one hot tier) per cache directory.  Bounded so a pathological caller
# cycling through directories cannot pin unbounded memos.
_SHARED_LOCK = threading.Lock()
_SHARED_CACHES: "OrderedDict[str, VerdictCache]" = OrderedDict()
_SHARED_CACHES_MAX = 8


def shared_cache(root: "str | os.PathLike | None" = None) -> VerdictCache:
    """The process-wide :class:`VerdictCache` for ``root``.

    Repeated calls with the same directory return the same object, so
    every in-process user of that directory — CLI sweeps, thread-pool
    exploration tasks, the serving tier — shares one hot tier instead
    of re-verifying entries into private memos.
    """
    if root is None:
        root = os.environ.get("REPRO_CACHE_DIR") or DEFAULT_CACHE_DIR
    key = os.path.abspath(os.fspath(root))
    with _SHARED_LOCK:
        cache = _SHARED_CACHES.get(key)
        if cache is None:
            cache = VerdictCache(key)
            _SHARED_CACHES[key] = cache
            while len(_SHARED_CACHES) > _SHARED_CACHES_MAX:
                _SHARED_CACHES.popitem(last=False)
        else:
            _SHARED_CACHES.move_to_end(key)
        return cache


def as_cache(cache) -> "VerdictCache | None":
    """Coerce the user-facing ``cache`` argument to a :class:`VerdictCache`.

    ``None`` stays ``None`` (caching off); ``True`` names the default
    directory and a string or path that directory, each answered by its
    :func:`shared_cache` (so repeated calls reuse one connection and hot
    tier); an existing :class:`VerdictCache` passes through.
    """
    if cache is None or isinstance(cache, VerdictCache):
        return cache
    if cache is True or isinstance(cache, (str, os.PathLike)):
        return shared_cache(None if cache is True else cache)
    raise TypeError(f"cannot interpret {cache!r} as a verdict cache")
