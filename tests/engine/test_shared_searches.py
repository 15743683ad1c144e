"""Search sharing inside one fan-out call.

``run_explorations`` and ``compute_shard_records`` run each
``(instance, model, bounds, engine, reduction)`` search at most once per
call: an unreliable model's reliable-twin pre-pass (Prop. 3.3(1)) and
the batch's own task for that reliable model share one search.  These
tests pin that the sharing is invisible in the results — every batched
verdict equals ``can_oscillate`` called alone — and that it really
removes the duplicate searches, and nothing more.
"""

import threading

import pytest

from repro import RunConfig
from repro.campaign.runner import compute_shard_records
from repro.campaign.spec import CampaignSpec
from repro.core import instances as canonical
from repro.core.generators import random_instance
from repro.engine import packed
from repro.engine.explorer import can_oscillate
from repro.engine.parallel import ExplorationTask, run_explorations
from repro.models.taxonomy import (
    ALL_MODELS,
    RELIABLE_MODELS,
    UNRELIABLE_MODELS,
    model,
)

CONFIG = RunConfig(engine="packed", queue_bound=2, step_bound=3000, workers=1)

R_FIRST = tuple(m.name for m in ALL_MODELS)
U_FIRST = tuple(m.name for m in UNRELIABLE_MODELS + RELIABLE_MODELS)
#: Unreliable models whose reliable twins are absent from the batch,
#: plus one reliable model whose unreliable partner is absent.
NO_TWINS = ("U1O", "UMS", "UEA", "UEF", "R1A")

#: Plain instances, a symmetric one, and random ones with incomplete
#: and twin-free oscillating verdicts at :data:`CONFIG`'s bounds.
INSTANCES = {
    "disagree": canonical.disagree,
    "grid": lambda: canonical.disagree_grid(2),
    "random-1": lambda: random_instance(1),
    "random-3": lambda: random_instance(3),
}


def _solo(instance, name, twin_first=True, config=CONFIG):
    return can_oscillate(
        instance, model(name), reliable_twin_first=twin_first, config=config
    )


def _batch(instance, names, config=CONFIG, twin_first=True):
    tasks = [
        ExplorationTask.from_config(
            instance, name, config, reliable_twin_first=twin_first
        )
        for name in names
    ]
    return [result for _, result in run_explorations(tasks, config=config)]


def _assert_solo_equal(instance, names, results, twin_first=True):
    assert len(results) == len(names)
    for name, result in zip(names, results):
        assert result == _solo(instance, name, twin_first), name


@pytest.mark.parametrize("order", [R_FIRST, U_FIRST], ids=["R-first", "U-first"])
@pytest.mark.parametrize("label", sorted(INSTANCES))
def test_batch_equals_solo(label, order):
    instance = INSTANCES[label]()
    _assert_solo_equal(instance, order, _batch(instance, order))


@pytest.mark.parametrize("label", sorted(INSTANCES))
def test_batch_without_twins_equals_solo(label):
    instance = INSTANCES[label]()
    _assert_solo_equal(instance, NO_TWINS, _batch(instance, NO_TWINS))


@pytest.mark.parametrize("label", ["disagree", "random-1"])
def test_batch_without_twin_first_equals_solo(label):
    instance = INSTANCES[label]()
    results = _batch(instance, U_FIRST, twin_first=False)
    _assert_solo_equal(instance, U_FIRST, results, twin_first=False)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("cached", [False, True], ids=["cache-off", "cache-on"])
@pytest.mark.parametrize("label", ["grid", "random-1"])
def test_workers_and_cache_equal_solo(tmp_path, label, cached, workers):
    instance = INSTANCES[label]()
    config = CONFIG.replace(
        workers=workers, cache_dir=str(tmp_path / "cache") if cached else None
    )
    cold = _batch(instance, U_FIRST, config=config)
    _assert_solo_equal(instance, U_FIRST, cold)
    if cached:
        warm = _batch(instance, U_FIRST, config=config)
        assert all(result.cache_hit for result in warm)
        assert warm == cold


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("cache", [False, True], ids=["cache-off", "cache-on"])
def test_shard_records_equal_solo(tmp_path, cache, workers):
    spec = CampaignSpec(
        name="shared",
        count=2,
        models=U_FIRST,
        shard_size=2,
        base_seed=1,
        queue_bound=2,
        step_bound=3000,
        engine="packed",
        cache=cache,
    )
    records = compute_shard_records(
        spec, 0, workers=workers, cache_dir=str(tmp_path / "cache")
    )
    instances = {seed: spec.instance_for_seed(seed) for seed in spec.shard_seeds(0)}
    assert len(records) == len(instances) * len(U_FIRST)
    for record in records:
        solo = _solo(instances[record["seed"]], record["model"]).as_dict()
        assert record["result"] == {key: solo[key] for key in record["result"]}


@pytest.fixture
def packed_searches(monkeypatch):
    """How many ``PackedExplorer.explore`` calls ran."""
    calls = []
    explore = packed.PackedExplorer.explore

    def counted(self):
        calls.append(self.model.name)
        return explore(self)

    monkeypatch.setattr(packed.PackedExplorer, "explore", counted)
    return calls


def test_serial_batch_searches_each_model_once(packed_searches, tmp_path):
    from repro import obs

    # No reliable model oscillates on GOOD GADGET, so every unreliable
    # model needs its twin pre-pass and its own lossy search: 36
    # searches without sharing, 24 with it.
    instance = canonical.good_gadget()
    previous = obs.active()
    telemetry = obs.configure(tmp_path / "t.jsonl")
    try:
        results = _batch(instance, U_FIRST)
    finally:
        obs.install(previous)
        telemetry.close()
    assert len(packed_searches) == 24
    assert telemetry.counters["explore.runs"] == 24
    assert telemetry.counters["explore.shared"] == 12
    _assert_solo_equal(instance, U_FIRST, results)


def test_memo_dies_with_the_call(packed_searches):
    from repro.analysis.experiments import matrix_certification

    instance = canonical.good_gadget()
    first = matrix_certification(instance=instance, config=CONFIG)
    assert len(packed_searches) == 24
    second = matrix_certification(instance=instance, config=CONFIG)
    assert len(packed_searches) == 48
    assert first == second


def test_equal_instances_are_not_shared(packed_searches):
    # Sharing matches the instance object, never an equal copy.
    first, second = canonical.good_gadget(), canonical.good_gadget()
    tasks = [
        ExplorationTask.from_config(instance, name, CONFIG)
        for instance in (first, second)
        for name in ("R1O", "U1O")
    ]
    run_explorations(tasks, config=CONFIG)
    assert sorted(packed_searches) == ["R1O", "R1O", "U1O", "U1O"]


def test_concurrent_fanouts_do_not_share(packed_searches):
    # Each thread's fan-out owns its memo, even over one instance object.
    instance = canonical.good_gadget()
    results = {}

    def fan_out(index):
        results[index] = _batch(instance, U_FIRST)

    threads = [threading.Thread(target=fan_out, args=(i,)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert len(packed_searches) == 4 * 24
    assert len(results) == 4
    for batch in results.values():
        assert batch == results[0]
    _assert_solo_equal(instance, U_FIRST, results[0])
