"""The SQLite plumbing of the package's two record stores, the campaign
work queue (:mod:`repro.campaign.queue`) and the verdict cache
(:mod:`repro.engine.cache`): opening a WAL-mode connection
(:func:`connect`) and a ``BEGIN IMMEDIATE`` :func:`transaction`.  Each
store keeps its own schema and SQL.
"""

from __future__ import annotations

import sqlite3
import time
from contextlib import contextmanager

__all__ = ["Error", "connect", "transaction"]

#: Base class of every error the database layer raises.
Error = sqlite3.Error


def connect(path, *, timeout: float, wal: bool = True):
    """An autocommit connection to ``path`` that any thread may use
    (callers serialize it under their own lock), switched to WAL
    unless ``wal`` is false (a one-off reader such as an audit)."""
    conn = sqlite3.connect(
        path, timeout=timeout, check_same_thread=False, isolation_level=None
    )
    if wal:
        try:
            _enable_wal(conn, timeout)
        except BaseException:
            conn.close()
            raise
    return conn


def _enable_wal(conn, timeout: float) -> None:
    """Switch to WAL, retrying within the busy timeout: SQLite answers
    a journal-mode change that races another connection's open with an
    immediate "database is locked", without consulting the busy
    handler."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            conn.execute("PRAGMA journal_mode=WAL")
            return
        except sqlite3.OperationalError as error:
            if "locked" not in str(error) or time.monotonic() >= deadline:
                raise
            time.sleep(0.01)


@contextmanager
def transaction(conn):
    """One ``BEGIN IMMEDIATE`` transaction: every read-modify-write in
    it is atomic against other processes (SQLite serializes writers)."""
    conn.execute("BEGIN IMMEDIATE")
    try:
        yield conn
    except BaseException:
        conn.execute("ROLLBACK")
        raise
    conn.execute("COMMIT")
