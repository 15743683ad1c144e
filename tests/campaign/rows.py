"""Damage a campaign's shard rows the way bit rot or an operator would."""

import json
import sqlite3

from repro.campaign.manifest import CampaignPaths


def _connect(directory):
    return sqlite3.connect(CampaignPaths(directory).queue_db_path)


def stored_result(directory, shard):
    """The result text stored in ``shard``'s row; ``None`` if there is
    none yet.  Read-only, so it can poll a live campaign's queue."""
    path = CampaignPaths(directory).queue_db_path
    if not path.is_file():
        return None
    conn = sqlite3.connect(f"{path.as_uri()}?mode=ro", uri=True)
    try:
        row = conn.execute(
            "SELECT result FROM shards WHERE shard=?", (shard,)
        ).fetchone()
    except sqlite3.OperationalError:  # tables not created yet
        row = None
    finally:
        conn.close()
    return row[0] if row else None


def store_result(directory, shard, text):
    """Overwrite ``shard``'s stored result behind the queue's back."""
    conn = _connect(directory)
    try:
        with conn:
            conn.execute("UPDATE shards SET result=? WHERE shard=?", (text, shard))
    finally:
        conn.close()


def edit_result(directory, shard, /, **changes):
    """Rewrite fields of ``shard``'s stored result, keeping the JSON
    valid but leaving the checksum as it was."""
    payload = json.loads(stored_result(directory, shard))
    payload.update(changes)
    store_result(directory, shard, json.dumps(payload))


def flip_states_explored(directory, shard):
    """Change one record's ``states_explored``: valid JSON, wrong data."""
    payload = json.loads(stored_result(directory, shard))
    payload["records"][0]["result"]["states_explored"] += 1
    store_result(directory, shard, json.dumps(payload))
