"""Concurrent verdict-cache writers: racing processes and forked pools.

The cache's multi-process contract: rows are write-once and racing
writers of one key carry identical text — so N processes putting the
same verdict must leave exactly one valid row, with every process still
able to read it back.  A forked pool worker inherits its parent's open
cache object and must open its own connection, not share the parent's.
"""

import json
import multiprocessing
from dataclasses import replace

from repro.analysis.experiments import matrix_certification
from repro.config import RunConfig
from repro.core.instances import ALL_NAMED_INSTANCES
from repro.engine.cache import (
    VerdictCache,
    audit,
    payload_checksum,
    shared_cache,
    verdict_key,
)
from repro.engine.explorer import ExplorationResult

from .verdict_rows import rows

N_WRITERS = 4


def _make_key(instance):
    return verdict_key(
        instance, "R1O", queue_bound=2, max_states=1000,
        reliable_twin_first=False, reduction="ample",
    )


def _make_result(instance):
    return ExplorationResult(
        model_name="R1O", instance_name=instance.name, oscillates=False,
        complete=True, states_explored=7, truncated_states=0,
    )


def _racing_writer(root, barrier, results):
    instance = ALL_NAMED_INSTANCES["disagree"]()
    cache = VerdictCache(root)
    barrier.wait(timeout=30)  # all writers put() as simultaneously as possible
    cache.put(_make_key(instance), instance, _make_result(instance))
    loaded = VerdictCache(root, memo_entries=0).get(_make_key(instance), instance)
    results.put((loaded == _make_result(instance), cache.io_errors))


def test_racing_writers_leave_exactly_one_valid_row(tmp_path):
    root = tmp_path / "cache"
    context = multiprocessing.get_context("fork")
    barrier = context.Barrier(N_WRITERS)
    results = context.Queue()
    writers = [
        context.Process(target=_racing_writer, args=(str(root), barrier, results))
        for _ in range(N_WRITERS)
    ]
    for writer in writers:
        writer.start()
    for writer in writers:
        writer.join(timeout=60)
        assert writer.exitcode == 0

    # Every process stored without an error and read the row back.
    for _ in range(N_WRITERS):
        assert results.get(timeout=10) == (True, 0)

    instance = ALL_NAMED_INSTANCES["disagree"]()
    key = _make_key(instance)
    stored = rows(root)
    assert list(stored) == [key]
    payload = json.loads(stored[key])
    assert payload["checksum"] == payload_checksum(payload)
    assert audit(root) == (1, [])

    # A fresh reader (cold memo) decodes the surviving row.
    assert VerdictCache(root).get(key, instance) == _make_result(instance)


def _verdicts(results):
    return {name: replace(result, cache_hit=False) for name, result in results.items()}


def test_pool_on_a_cache_the_parent_opened_matches_the_serial_run(tmp_path, disagree):
    serial = matrix_certification(
        instance=disagree, config=RunConfig(workers=1, queue_bound=2, cache=False)
    )
    root = tmp_path / "cache"
    # The parent opens the store (and memoizes one verdict) before the
    # pool forks, so every worker inherits an open connection.
    parent = shared_cache(root)
    key = verdict_key(
        disagree, "R1O", queue_bound=2, max_states=200_000,
        reliable_twin_first=True, reduction="ample",
    )
    parent.put(key, disagree, serial["R1O"])
    pooled = matrix_certification(
        instance=disagree,
        config=RunConfig(workers=2, queue_bound=2, cache_dir=str(root)),
    )
    assert _verdicts(pooled) == _verdicts(serial)
    assert audit(root) == (len(serial), [])
    # The parent's own connection still works after the pool's writes.
    assert parent.stats()["entries"] == len(serial)
    assert parent.io_errors == 0
