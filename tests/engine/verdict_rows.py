"""Read and damage a verdict cache's rows behind the cache's back, the
way bit rot or an operator would."""

import json
import sqlite3
from contextlib import closing
from pathlib import Path


def store_path(root) -> Path:
    return Path(root) / "verdicts.sqlite"


def _connect(root):
    conn = sqlite3.connect(store_path(root))
    conn.text_factory = bytes
    return closing(conn)


def rows(root) -> dict:
    """Every stored payload (raw bytes), by key."""
    if not store_path(root).is_file():
        return {}
    with _connect(root) as conn:
        found = conn.execute("SELECT key, payload FROM verdicts").fetchall()
    return {key.decode(): payload for key, payload in found}


def only_key(root) -> str:
    [key] = rows(root)
    return key


def store_payload(root, key, raw) -> None:
    """Overwrite ``key``'s payload with ``raw`` (str, or bytes that need
    not be valid UTF-8), keeping it a text value."""
    if isinstance(raw, str):
        raw = raw.encode()
    with _connect(root) as conn, conn:
        conn.execute(
            "UPDATE verdicts SET payload=CAST(? AS TEXT) WHERE key=?", (raw, key)
        )


def edit_payload(root, key, /, **changes) -> None:
    """Rewrite fields of ``key``'s payload, keeping the JSON valid but
    leaving the checksum as it was."""
    payload = json.loads(rows(root)[key])
    payload.update(changes)
    store_payload(root, key, json.dumps(payload))


def damage(root, key, change) -> None:
    """Replace ``key``'s payload with ``change(payload bytes)``."""
    store_payload(root, key, change(rows(root)[key]))
