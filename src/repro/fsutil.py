"""Crash-safe filesystem primitives shared by the cache and campaigns.

Every durable JSON artifact in the package — verdict-cache entries,
campaign specs/manifests/checkpoints/reports — goes through
:func:`atomic_write_text`: a tempfile in the destination directory
followed by ``os.replace``, so a crash at any instant leaves either the
previous file or the new one, never a torn write.  Two hardenings on
top of the bare rename:

* **ENOSPC retry.**  A full disk is usually transient (log rotation,
  a concurrent cleanup); writes retry with bounded exponential backoff
  before giving up, and the retries are visible as the
  ``storage.enospc_retry`` telemetry counter.
* **Orphan-temp sweep.**  A process killed between ``mkstemp`` and
  ``os.replace`` leaks a ``.<name>-XXXX.tmp`` file.  Stores sweep
  their directories on open (:func:`sweep_orphan_temps`, age-gated so
  a *live* writer's tempfile is never stolen), and ``repro doctor``
  reports/removes them regardless of age.

Writes carry an optional fault-injection site (:mod:`repro.faults`), so
the chaos suite can exercise exactly these guarantees.
"""

from __future__ import annotations

import errno
import os
import tempfile
import time
from pathlib import Path

from .faults import fault_point
from .obs import active as _telemetry

__all__ = [
    "ENOSPC_BACKOFF_S",
    "ENOSPC_RETRIES",
    "ORPHAN_TMP_TTL_S",
    "QUARANTINE_DIR",
    "atomic_write_text",
    "find_orphan_temps",
    "is_orphan_temp",
    "quarantine",
    "sweep_orphan_temps",
]

#: Extra attempts after the first ENOSPC failure.
ENOSPC_RETRIES = 4

#: Base of the exponential ENOSPC backoff, in seconds.
ENOSPC_BACKOFF_S = 0.05

#: How stale a ``.*.tmp`` file must be before an on-open sweep removes
#: it.  Atomic writes live for milliseconds; five minutes of margin
#: means a sweeping reader can never race a live writer.
ORPHAN_TMP_TTL_S = 300.0

#: Subdirectory (under a store's root) that bad artifacts are moved into.
QUARANTINE_DIR = "quarantine"


def atomic_write_text(
    path,
    text: str,
    *,
    fault_site: "str | None" = None,
    retries: int = ENOSPC_RETRIES,
    backoff: float = ENOSPC_BACKOFF_S,
) -> None:
    """Write ``text`` to ``path`` via tempfile + atomic rename.

    ``ENOSPC`` is retried ``retries`` times with exponential backoff
    (every retry recounted from the original ``text``, so a fault-
    mutated attempt never leaks into the next one); any other
    ``OSError`` — and a final ``ENOSPC`` — propagates to the caller.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    for attempt in range(retries + 1):
        try:
            blob = text if fault_site is None else fault_point(fault_site, text)
            _replace_with(path, blob)
            return
        except OSError as error:
            if error.errno != errno.ENOSPC or attempt == retries:
                raise
            _telemetry().count("storage.enospc_retry")
            time.sleep(min(backoff * (2**attempt), 2.0))


def _replace_with(path: Path, blob: str) -> None:
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}-", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(blob)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def is_orphan_temp(name: str) -> bool:
    """Whether a file name matches the atomic-write tempfile pattern."""
    return name.startswith(".") and name.endswith(".tmp")


def find_orphan_temps(root) -> list:
    """Every atomic-write tempfile under ``root``, regardless of age."""
    root = Path(root)
    if not root.is_dir():
        return []
    return sorted(p for p in root.rglob(".*.tmp") if p.is_file())


def sweep_orphan_temps(root, max_age_s: float = ORPHAN_TMP_TTL_S) -> int:
    """Delete stale atomic-write tempfiles under ``root``.

    Only files older than ``max_age_s`` go (a concurrent writer's live
    tempfile survives); returns the number removed and counts them as
    ``storage.orphan_swept``.
    """
    now = time.time()
    removed = 0
    for path in find_orphan_temps(root):
        try:
            if now - path.stat().st_mtime >= max_age_s:
                path.unlink()
                removed += 1
        except OSError:
            pass  # raced with another sweeper, or the file went away
    if removed:
        _telemetry().count("storage.orphan_swept", removed)
    return removed


def quarantine(root, path) -> Path:
    """Move ``path`` into ``<root>/quarantine/``; where it landed.

    Never overwrites: a name an earlier artifact already holds there (a
    second corruption of one cache key, say) gets a ``.1``, ``.2``, …
    suffix, so every post-mortem copy survives.  Raises ``OSError``
    when the move fails.
    """
    path = Path(path)
    target_dir = Path(root) / QUARANTINE_DIR
    target_dir.mkdir(parents=True, exist_ok=True)
    target = target_dir / path.name
    counter = 0
    while target.exists():
        counter += 1
        target = target_dir / f"{path.name}.{counter}"
    os.replace(path, target)
    return target
