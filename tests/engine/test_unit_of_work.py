"""The instance is the unit of work.

A fan-out hands the tasks of one instance object to a worker as one
item, and each item makes one verdict-store read and one store write
(``engine.explorer._certify``, whose one-model case is
``can_oscillate``).  These tests pin that the grouping and the batched
store traffic change no verdict and no stored byte at any worker count,
count the SQL a certification issues, exercise the store's fault sites
on a whole batch, and count the per-instance set-up work of a campaign
shard.
"""

import sqlite3
from collections import OrderedDict

import pytest

from repro import faults
from repro.analysis.experiments import matrix_certification
from repro.campaign.runner import compute_shard_records
from repro.campaign.spec import CampaignSpec
from repro.config import RunConfig
from repro.core import canonical as canonical_module
from repro.core import instances as gadgets
from repro.engine import cache as cache_module
from repro.engine import packed, parallel, reduction
from repro.engine.cache import VerdictCache, audit, shared_cache, verdict_key
from repro.engine.explorer import can_oscillate
from repro.engine.parallel import ExplorationTask, run_explorations
from repro.faults import FaultPlan
from repro.models.taxonomy import ALL_MODELS, model
from repro.obs import Telemetry, install

from .verdict_rows import rows, store_path

MODELS = tuple(m.name for m in ALL_MODELS)
CONFIG = RunConfig(queue_bound=2, workers=1)


def _keys(instance, config=CONFIG):
    return [
        verdict_key(
            instance, name, queue_bound=config.queue_bound,
            max_states=config.max_states, reliable_twin_first=True,
            reduction=config.reduction,
        )
        for name in MODELS
    ]


@pytest.fixture()
def telemetry():
    sink = Telemetry()
    previous = install(sink)
    yield sink
    install(previous)


# ----------------------------------------------------------------------
# Grouping
# ----------------------------------------------------------------------

def test_single_instance_library_call_starts_no_pool(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a one-instance certification started a pool")

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", refuse)
    found = matrix_certification(config=RunConfig())
    assert found == matrix_certification(config=RunConfig(workers=1))


def _dump(root) -> list:
    with sqlite3.connect(store_path(root)) as conn:
        conn.text_factory = bytes
        return conn.execute(
            "SELECT key, payload FROM verdicts ORDER BY key"
        ).fetchall()


def test_worker_counts_give_identical_results_and_rows(tmp_path):
    instances = (gadgets.disagree(), gadgets.fig7_gadget(), gadgets.disagree_grid(2))
    outcomes, dumps = [], []
    for workers in (1, 2, None):
        root = tmp_path / f"workers-{workers}"
        config = CONFIG.replace(workers=workers, cache_dir=str(root))
        tasks = [
            ExplorationTask.from_config(instance, name, config)
            for instance in instances
            for name in MODELS
        ]
        outcomes.append(run_explorations(tasks, config=config))
        dumps.append(_dump(root))
    assert outcomes[0] == outcomes[1] == outcomes[2]
    assert len(dumps[0]) == 3 * len(MODELS)
    assert dumps[0] == dumps[1] == dumps[2]


# ----------------------------------------------------------------------
# Store round trips
# ----------------------------------------------------------------------

def _traced(cache) -> list:
    """Every SQL statement ``cache``'s connection runs from now on."""
    statements: list = []
    cache._with_store(
        lambda conn: conn.set_trace_callback(statements.append), create=True
    )
    return statements


def _kinds(statements) -> list:
    return [statement.split()[0].upper() for statement in statements]


def test_cold_certification_reads_once_and_writes_one_transaction(tmp_path):
    root = tmp_path / "cache"
    statements = _traced(shared_cache(root))
    matrix_certification(config=CONFIG.replace(cache_dir=str(root)))
    kinds = _kinds(statements)
    assert kinds.count("SELECT") <= 1
    writes = [kind for kind in kinds if kind != "SELECT"]
    assert writes == ["BEGIN"] + ["INSERT"] * len(MODELS) + ["COMMIT"]
    assert "BEGIN IMMEDIATE" in statements[kinds.index("BEGIN")]
    assert len(rows(root)) == len(MODELS)


def test_warm_certification_reads_once_and_writes_nothing(tmp_path, monkeypatch):
    root = tmp_path / "cache"
    cold = matrix_certification(config=CONFIG.replace(cache_dir=str(root)))
    # A fresh process-wide registry: the repeat gets a fresh cache
    # object on the same directory, with an empty memo.
    monkeypatch.setattr(cache_module, "_SHARED_CACHES", OrderedDict())
    fresh = shared_cache(root)
    statements = _traced(fresh)
    warm = matrix_certification(config=CONFIG.replace(cache_dir=str(root)))
    assert _kinds(statements) == ["SELECT"]
    assert warm == cold
    assert all(result.cache_hit for result in warm.values())
    assert fresh.hits == len(MODELS) and fresh.misses == 0


def test_one_model_call_reads_once_and_writes_once(tmp_path):
    cache = VerdictCache(tmp_path / "cache")
    statements = _traced(cache)
    can_oscillate(gadgets.disagree(), model("R1O"), config=CONFIG.replace(cache=cache))
    assert _kinds(statements) == ["SELECT", "BEGIN", "INSERT", "COMMIT"]


# ----------------------------------------------------------------------
# Faults on a batch
# ----------------------------------------------------------------------

def test_failed_batch_write_stores_nothing_and_keeps_the_memo(tmp_path, telemetry):
    instance = gadgets.disagree()
    root = tmp_path / "cache"
    expected = matrix_certification(instance=instance, config=CONFIG)
    plan = FaultPlan(rules=({"site": "cache.write", "kind": "enospc", "after": 2},))
    with faults.armed(plan):
        found = matrix_certification(
            instance=instance, config=CONFIG.replace(cache_dir=str(root))
        )
    assert found == expected
    assert rows(root) == {}
    assert telemetry.counters["cache.io_error"] == 1
    assert "cache.write" not in telemetry.counters
    cache = shared_cache(root)
    assert all(cache.peek_memo(key) is not None for key in _keys(instance))


def test_an_item_that_raises_stores_what_it_finished(tmp_path, telemetry):
    instance = gadgets.disagree()
    root = tmp_path / "cache"
    tasks = [
        ExplorationTask(instance=instance, model_name=name, queue_bound=2,
                        cache_dir=str(root))
        for name in MODELS
    ]
    plan = FaultPlan(rules=({"site": "worker.run", "kind": "raise", "after": 5},))
    with faults.armed(plan), pytest.raises(OSError):
        run_explorations(tasks, config=CONFIG)
    assert set(rows(root)) == set(_keys(instance)[:5])
    assert telemetry.counters["cache.write"] == 5
    # The retry of the item answers the finished five from the store.
    run_explorations(tasks, config=CONFIG)
    assert telemetry.counters["cache.hit"] == 5
    assert len(rows(root)) == len(MODELS)


@pytest.mark.parametrize("kind", ["truncate", "bitflip"])
def test_one_damaged_row_of_a_batch_is_caught_on_the_next_read(
    tmp_path, telemetry, kind
):
    instance = gadgets.disagree()
    root = tmp_path / "cache"
    plan = FaultPlan(rules=({"site": "cache.write", "kind": kind, "times": 1},))
    with faults.armed(plan):
        expected = matrix_certification(
            instance=instance, config=CONFIG.replace(cache_dir=str(root))
        )
    healthy, issues = audit(root)
    assert (healthy, len(issues)) == (len(MODELS) - 1, 1)
    fresh = VerdictCache(root)
    found = fresh.get_many(_keys(instance), instance)
    assert sum(result is None for result in found) == 1
    assert fresh.quarantined == 1
    assert telemetry.counters["cache.quarantined"] == 1
    for result in found:
        assert result is None or result == expected[result.model_name]
    assert len(rows(root)) == len(MODELS) - 1


# ----------------------------------------------------------------------
# Set-up work per instance
# ----------------------------------------------------------------------

#: The population of perfbench's ``campaign-loopback`` workload.
LOOPBACK = CampaignSpec(
    name="loopback", count=16, shard_size=1, base_seed=0, n_nodes=4,
    max_paths_per_node=3, max_path_length=4, queue_bound=2, step_bound=200,
    engine="packed", cache=True,
)


def _counting(monkeypatch, calls, name, module, attr):
    original = getattr(module, attr)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, attr, counted)


def test_one_layout_per_instance_in_a_campaign_shard(tmp_path, monkeypatch):
    calls = {"layouts": 0, "automorphisms": 0, "tables": 0}
    _counting(monkeypatch, calls, "layouts", packed, "_Layout")
    _counting(monkeypatch, calls, "automorphisms", packed, "automorphisms")
    _counting(monkeypatch, calls, "automorphisms", canonical_module, "automorphisms")
    _counting(monkeypatch, calls, "tables", packed, "representative_tables")
    _counting(monkeypatch, calls, "tables", reduction, "representative_tables")
    for shard in range(LOOPBACK.n_shards):
        compute_shard_records(
            LOOPBACK, shard, workers=1, cache_dir=str(tmp_path / "cache")
        )
    assert LOOPBACK.n_shards == 16
    assert calls == {"layouts": 16, "automorphisms": 16, "tables": 32}
