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

**Storage.**  One JSON file per key under
``<root>/verdicts/<key[:2]>/<key>.json`` (default root ``.repro-cache``,
overridable via the ``REPRO_CACHE_DIR`` environment variable or the
constructor).  Entries are write-once and written atomically (tempfile
in the destination directory + ``os.replace``), so concurrent
``parallel.py`` workers can share one cache directory without locks:
racing writers of the same key produce identical bytes, and readers
never observe a partial file.

**Integrity and degradation.**  Every entry embeds a sha256
``checksum`` of its own payload; an entry that fails to parse, fails
its checksum, or carries a stale :data:`CACHE_VERSION` is *quarantined*
(moved to ``<root>/quarantine/``, counted as ``cache.quarantined``) and
transparently recomputed — a corrupt cache can cost time, never
correctness.  All cache I/O degrades gracefully: a read error is a
miss, a write error (disk full, permissions) drops the store and keeps
the in-process memo, so a broken cache directory can slow a campaign
down but cannot abort it.  Orphan tempfiles left by crashed writers
are swept on store open (see :mod:`repro.fsutil`) and by ``repro
doctor``.

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
import re
import threading
from collections import OrderedDict
from pathlib import Path

from ..core.canonical import canonical_hash, canonical_labeling
from ..core.spp import SPPInstance
from ..faults import fault_point
from ..fsutil import (
    QUARANTINE_DIR,
    atomic_write_text,
    quarantine,
    quarantine_on_repair,
    sweep_orphan_temps,
)
from ..obs import active as _telemetry
from ..obs import trace_span
from .activation import INFINITY, ActivationEntry
from .explorer import ENGINE_REVISION, ExplorationResult, OscillationWitness
from .reduction import REDUCTION_REVISION

__all__ = [
    "CACHE_VERSION",
    "DEFAULT_CACHE_DIR",
    "DEFAULT_MEMO_ENTRIES",
    "QUARANTINE_DIR",
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
    """The decoded bytes of a stored entry, and why they cannot be trusted."""
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

def _encode_count(count) -> "int | str":
    return "inf" if count == INFINITY else count


def _decode_count(raw) -> "int | float":
    return INFINITY if raw == "inf" else raw


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
# On-disk layout: ``<root>/verdicts/<key[:2]>/<key>.json``.

_VERDICTS = "verdicts"
_KEY = re.compile(r"[0-9a-f]{64}")


def _entry_path(root: Path, key: str) -> Path:
    return root / _VERDICTS / key[:2] / f"{key}.json"


def _entries(root: Path):
    verdict_dir = root / _VERDICTS
    if not verdict_dir.is_dir():
        return
    for shard in sorted(verdict_dir.iterdir()):
        if shard.is_dir():
            yield from sorted(shard.glob("*.json"))


def _quarantine_backlog(root: Path) -> int:
    quarantine_dir = root / QUARANTINE_DIR
    if not quarantine_dir.is_dir():
        return 0
    return sum(1 for p in quarantine_dir.iterdir() if p.is_file())


def _stored_entry_issue(root: Path, entry: Path) -> "tuple[str, str] | None":
    """``(severity, detail)`` for an entry a lookup would not serve."""
    try:
        payload, issue = _parse_entry(entry.read_bytes())
    except OSError as error:
        return "error", f"corrupt entry ({error})"
    if issue is not None:
        # An entry of another format version is obsolete, not damaged.
        stale = isinstance(payload, dict) and not _is_current(payload)
        return ("warning" if stale else "error"), issue
    if not _KEY.fullmatch(entry.stem):
        return "warning", "file name is not a sha256 content key"
    if entry != _entry_path(root, entry.stem):
        return "warning", (
            f"misplaced entry (in shard {entry.parent.name!r}, key "
            f"prescribes {entry.stem[:2]!r}) — unreachable by lookup"
        )
    return None


def is_cache_root(root) -> bool:
    """Whether ``root`` is a verdict-cache root: it holds a ``verdicts/``
    directory, or is named like :data:`DEFAULT_CACHE_DIR`."""
    root = Path(root)
    return (root / _VERDICTS).is_dir() or root.name == DEFAULT_CACHE_DIR


def audit(root, *, repair: bool = False) -> "tuple[int, list]":
    """Check the cache store at ``root`` the way a lookup would read it.

    Returns ``(healthy, issues)``: the number of entries a lookup would
    serve, and ``(severity, category, path, detail, repair)`` tuples
    with ``path`` relative to ``root``.  An entry a lookup would not
    serve is ``"quarantined"`` when ``repair`` is set (a lookup
    quarantines it too, or never reaches it); the quarantine backlog
    is reported as ``"info"``.
    """
    root = Path(root)
    healthy, issues = 0, []
    if not (root / _VERDICTS).is_dir():
        issues.append(
            ("info", "cache.empty", _VERDICTS,
             "no verdicts directory (cache never written)", None)
        )
    for entry in _entries(root):
        problem = _stored_entry_issue(root, entry)
        if problem is None:
            healthy += 1
            continue
        severity, detail = problem
        issues.append((
            severity, "cache.entry", str(entry.relative_to(root)), detail,
            quarantine_on_repair(root, entry, repair),
        ))
    backlog = _quarantine_backlog(root)
    if backlog:
        issues.append((
            "info", "cache.quarantine", QUARANTINE_DIR,
            f"{backlog} quarantined artifact(s) awaiting post-mortem "
            "(safe to delete)",
            None,
        ))
    return healthy, issues


# ----------------------------------------------------------------------

class VerdictCache:
    """A directory of memoized exploration results.

    Safe to share between processes: entries are write-once and all
    writes are atomic renames.  A bounded in-process LRU memo keeps
    verified-once payloads resident so hot keys skip disk I/O, JSON
    parsing, and checksum verification on repeat reads; it is guarded
    by a lock, so one cache object can serve many threads.
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
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.evictions = 0
        self.quarantined = 0
        self.io_errors = 0
        self.mem_hits = 0
        self.mem_evictions = 0
        # Stale tempfiles from crashed writers (age-gated: a live
        # writer's tempfile is never touched).
        sweep_orphan_temps(self.verdict_dir)

    # -- paths ----------------------------------------------------------
    @property
    def verdict_dir(self) -> Path:
        return self.root / _VERDICTS

    def _path(self, key: str) -> Path:
        return _entry_path(self.root, key)

    # -- hot tier -------------------------------------------------------
    def peek_memo(self, key: str) -> "dict | None":
        """The memoized payload for ``key``, if resident (no disk I/O)."""
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

    def _forget(self, key: str) -> None:
        with self._lock:
            self._memo.pop(key, None)

    # -- core operations ------------------------------------------------
    def get(self, key: str, instance: SPPInstance) -> "ExplorationResult | None":
        """The cached result for ``key``, re-labeled for ``instance``."""
        tel = _telemetry()
        with trace_span("cache.get"):
            payload, _ = self._fetch_payload(key)
            if payload is None:
                self.misses += 1
                tel.count("cache.miss")
                return None
            try:
                result = _result_from_jsonable(payload, instance)
            except (KeyError, IndexError, TypeError, ValueError):
                self._forget(key)
                self._quarantine(self._path(key))
                self.misses += 1
                tel.count("cache.miss")
                return None
            self.hits += 1
        tel.count("cache.hit")
        return result

    def get_payload(self, key: str) -> "tuple[dict | None, str]":
        """The verified raw payload for ``key`` plus the tier that served it.

        Returns ``(payload, tier)`` with ``tier`` one of ``"memory"``
        (hot-tier hit: no disk I/O, parse, or checksum work),
        ``"disk"`` (read, parsed, and verified from the store — now
        memoized), or ``"miss"`` (``payload is None``).  Maintains the
        same hit/miss accounting as :meth:`get`.
        """
        tel = _telemetry()
        with trace_span("cache.get"):
            payload, tier = self._fetch_payload(key)
            if payload is None:
                self.misses += 1
                tel.count("cache.miss")
            else:
                self.hits += 1
                tel.count("cache.hit")
        return payload, tier

    def _fetch_payload(self, key: str) -> "tuple[dict | None, str]":
        """Memo-then-disk payload fetch; verifies before memoizing."""
        payload = self.peek_memo(key)
        if payload is not None:
            self.mem_hits += 1
            _telemetry().count("cache.mem_hit")
            return payload, "memory"
        path = self._path(key)
        try:
            fault_point("cache.read", path)
            raw = path.read_bytes()
        except FileNotFoundError:
            return None, "miss"
        except OSError:
            # Unreadable store (I/O error, permissions): degrade to
            # a recompute without touching the entry — it may be
            # perfectly healthy once the filesystem recovers.
            self.io_errors += 1
            _telemetry().count("cache.io_error")
            return None, "miss"
        payload, issue = _parse_entry(raw)
        if issue is not None:
            # Corrupt (e.g. a crashed writer on a filesystem without
            # atomic rename), checksum-failing, or version-skewed: never
            # trusted — quarantined, so the write-once store can re-fill
            # the slot, and recomputed.
            self._quarantine(path)
            return None, "miss"
        self.remember(key, payload)
        return payload, "disk"

    def _quarantine(self, path: Path) -> None:
        """Move a bad entry to ``<root>/quarantine/`` (best effort).

        If the move fails the entry is deleted instead: the write-once
        :meth:`put` never overwrites a path that exists, so a bad entry
        left in place would never be replaced.
        """
        try:
            quarantine(self.root, path)
        except OSError:
            path.unlink(missing_ok=True)
        self.quarantined += 1
        _telemetry().count("cache.quarantined")

    def put(self, key: str, instance: SPPInstance, result: ExplorationResult) -> None:
        """Store ``result`` under ``key`` (no-op if already present).

        Write failures (disk full, read-only store) degrade to the
        in-process memo — a broken cache directory never aborts the
        computation that produced ``result``.
        """
        tel = _telemetry()
        with trace_span("cache.put"):
            payload = result_to_payload(result, instance)
            self.remember(key, payload)
            path = self._path(key)
            try:
                if path.exists():
                    return
                blob = json.dumps(
                    payload, separators=(",", ":"), sort_keys=True, allow_nan=False
                )
                atomic_write_text(
                    path, blob, fault_site="cache.write", retries=0
                )
            except OSError:
                self.io_errors += 1
                tel.count("cache.io_error")
                return
        self.writes += 1
        tel.count("cache.write")

    # -- maintenance ----------------------------------------------------
    def stats(self) -> dict:
        """Entry count / byte totals on disk plus this process's hit rate."""
        entries = 0
        total_bytes = 0
        for path in _entries(self.root):
            entries += 1
            try:
                total_bytes += path.stat().st_size
            except OSError:
                pass
        in_quarantine = _quarantine_backlog(self.root)
        with self._lock:
            memo_resident = len(self._memo)
        return {
            "root": str(self.root),
            "entries": entries,
            "bytes": total_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "evictions": self.evictions,
            "quarantined": self.quarantined,
            "io_errors": self.io_errors,
            "in_quarantine": in_quarantine,
            "mem_hits": self.mem_hits,
            "mem_evictions": self.mem_evictions,
            "memo_entries": self.memo_entries,
            "memo_resident": memo_resident,
        }

    def clear(self) -> int:
        """Delete every cached verdict; returns the number removed."""
        removed = 0
        for path in list(_entries(self.root)):
            path.unlink(missing_ok=True)
            removed += 1
        with self._lock:
            self._memo.clear()
        return removed

    def evict(self, max_entries: int) -> int:
        """Keep the ``max_entries`` most recently touched verdicts."""
        if max_entries < 0:
            raise ValueError("max_entries must be non-negative")
        paths = list(_entries(self.root))
        if len(paths) <= max_entries:
            return 0
        paths.sort(key=lambda p: p.stat().st_mtime, reverse=True)
        removed = 0
        for path in paths[max_entries:]:
            path.unlink(missing_ok=True)
            removed += 1
        with self._lock:
            self._memo.clear()
        self.evictions += removed
        _telemetry().count("cache.evicted", removed)
        return removed


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

    ``None`` stays ``None`` (caching off); ``True`` opens the default
    directory; a string or path opens that directory; an existing
    :class:`VerdictCache` passes through.
    """
    if cache is None or isinstance(cache, VerdictCache):
        return cache
    if cache is True:
        return VerdictCache()
    if isinstance(cache, (str, os.PathLike)):
        return VerdictCache(cache)
    raise TypeError(f"cannot interpret {cache!r} as a verdict cache")
