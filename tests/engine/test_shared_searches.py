"""Search sharing inside one fan-out call.

``run_explorations`` and ``compute_shard_records`` run each
``(instance, model, bounds, engine, reduction)`` search at most once per
call: the twin lookups that settle a model through the containment
order (Prop. 3.3, DESIGN.md §7.4) and the batch's own tasks for those
twins share one search.  These tests pin that the sharing is invisible
in the results — every batched verdict equals ``can_oscillate`` called
alone — and that it really removes the duplicate searches, and nothing
more.
"""

import json
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


#: GOOD GADGET has no oscillation in any model, and every M-scope model
#: completes at :data:`CONFIG`'s bounds.  For each of the four message
#: counts x, the edges then search only RMx and UMx: UMx's reliable twin RMx finds no
#: witness, and all four 1/E models are implied by their M twin.
GOOD_GADGET_SEARCHES = 4 * 2
#: ``_search`` lookups for each count x: RMx 1 (its own search), UMx 2
#: (RMx, then itself), R1x and REx 1 each (RMx), U1x and UEx 2 each
#: (UMx settles through RMx and itself) — 9, of which 2 run.
GOOD_GADGET_SHARED = 4 * (9 - 2)


def test_serial_batch_searches_each_model_once(packed_searches, tmp_path):
    from repro import obs

    instance = canonical.good_gadget()
    previous = obs.active()
    telemetry = obs.configure(tmp_path / "t.jsonl")
    try:
        results = _batch(instance, U_FIRST)
    finally:
        obs.install(previous)
        telemetry.close()
    assert sorted(packed_searches) == sorted(
        name for name in U_FIRST if name[1] == "M"
    )
    assert len(packed_searches) == GOOD_GADGET_SEARCHES
    assert telemetry.counters["explore.runs"] == 24
    assert telemetry.counters["explore.shared"] == GOOD_GADGET_SHARED
    assert telemetry.counters["explore.implied"] == 16
    # Only searched verdicts add states: an implied one repeats its twin's.
    searched = [r for name, r in zip(U_FIRST, results) if name[1] == "M"]
    assert telemetry.counters["explore.states"] == sum(
        r.states_explored for r in searched
    )
    assert telemetry.counters.get("explore.states_pruned", 0) == sum(
        r.states_pruned for r in searched
    )
    # Each verdict event names the twin that settled it.
    records = [
        json.loads(line) for line in (tmp_path / "t.jsonl").read_text().splitlines()
    ]
    implied_by = {r["model"]: r["implied_by"] for r in records if r["type"] == "verdict"}
    assert implied_by == {
        name: None if name[1] == "M" else f"{name[0]}M{name[2]}" for name in U_FIRST
    }
    _assert_solo_equal(instance, U_FIRST, results)


@pytest.fixture
def searches_everywhere(monkeypatch, tmp_path):
    """``(instance, model)`` of every ``PackedExplorer.explore`` call,
    pool workers included (forked workers inherit the patch and append
    to one file)."""
    log = tmp_path / "searches.log"
    explore = packed.PackedExplorer.explore

    def counted(self):
        with open(log, "a", encoding="utf-8") as handle:
            handle.write(f"{self.instance.name} {self.model.name}\n")
        return explore(self)

    monkeypatch.setattr(packed.PackedExplorer, "explore", counted)
    return lambda: log.read_text().split("\n")[:-1] if log.exists() else []


def test_pooled_batch_searches_each_model_once(searches_everywhere):
    # The tasks of one instance share a worker and its memo, so a pool
    # searches exactly what the in-process batch does.
    instance = canonical.good_gadget()
    results = _batch(instance, U_FIRST, config=CONFIG.replace(workers=2))
    assert sorted(searches_everywhere()) == sorted(
        f"{instance.name} {name}" for name in U_FIRST if name[1] == "M"
    )
    _assert_solo_equal(instance, U_FIRST, results)


def test_pooled_shard_searches_each_model_once(searches_everywhere, tmp_path):
    spec = CampaignSpec(
        name="pooled", count=2, models=U_FIRST, shard_size=2, base_seed=1,
        queue_bound=2, step_bound=3000, engine="packed", cache=False,
    )
    compute_shard_records(spec, 0, workers=2, cache_dir=str(tmp_path / "cache"))
    searches = searches_everywhere()
    assert searches and len(set(searches)) == len(searches)


def test_memo_dies_with_the_call(packed_searches):
    from repro.analysis.experiments import matrix_certification

    instance = canonical.good_gadget()
    first = matrix_certification(instance=instance, config=CONFIG)
    assert len(packed_searches) == GOOD_GADGET_SEARCHES
    second = matrix_certification(instance=instance, config=CONFIG)
    assert len(packed_searches) == 2 * GOOD_GADGET_SEARCHES
    assert first == second


def test_solo_call_searches_each_twin_once(packed_searches):
    # On DISAGREE RMO oscillates, so UEO's scope edge (UMO, settled by
    # RMO's witness) implies nothing, and its reliability edge asks for
    # RMO again through REO's scope edge: the call's own memo answers.
    _solo(canonical.disagree(), "UEO")
    assert sorted(packed_searches) == ["REO", "RMO", "UEO"]


def test_equal_instances_are_not_shared(packed_searches):
    # Sharing matches the instance object, never an equal copy.
    first, second = canonical.good_gadget(), canonical.good_gadget()
    tasks = [
        ExplorationTask.from_config(instance, name, CONFIG)
        for instance in (first, second)
        for name in ("R1O", "U1O")
    ]
    run_explorations(tasks, config=CONFIG)
    # Per copy: RMO settles R1O; UMO (after RMO) settles U1O.
    assert sorted(packed_searches) == ["RMO", "RMO", "UMO", "UMO"]


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
    assert len(packed_searches) == 4 * GOOD_GADGET_SEARCHES
    assert len(results) == 4
    for batch in results.values():
        assert batch == results[0]
    _assert_solo_equal(instance, U_FIRST, results[0])
