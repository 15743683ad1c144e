"""One word layout per instance inside a fan-out.

Within a live sharing block (:func:`repro.engine.explorer._shared_searches`)
every packed search of one instance object at one reduction and queue
bound uses one layout: one word layout, one compiled automorphism
group, one orbit memo and one set of image tables (DESIGN.md §6.4).
These tests pin that the sharing changes no result and no
``explore.orbits_merged`` total, that it really builds the layout once,
computes each orbit once and translates each sub-word once, and that
it leaves nothing behind once the block is gone.
"""

import pickle
from dataclasses import replace

import pytest

from repro import RunConfig, obs
from repro.analysis.experiments import matrix_certification
from repro.core import instances as canonical
from repro.core.canonical import automorphisms
from repro.core.generators import random_instance
from repro.engine import packed
from repro.engine.explorer import _SHARED, Explorer, can_oscillate
from repro.engine.parallel import ExplorationTask, run_explorations
from repro.models.dimensions import NeighborScope, Reliability
from repro.models.taxonomy import ALL_MODELS, CommunicationModel, model

CONFIG = RunConfig(engine="packed", queue_bound=2, step_bound=3000, cache=False)

INSTANCES = {
    "disagree": canonical.disagree,
    "fig6": canonical.fig6_gadget,
    "fig7": canonical.fig7_gadget,
    "fig8": canonical.fig8_gadget,
    "fig9": canonical.fig9_gadget,
    "grid": lambda: canonical.disagree_grid(2),
    **{f"random-{seed}": (lambda seed=seed: random_instance(seed)) for seed in range(10)},
}


class _Counted:
    """Memory-only telemetry for the block: ``counters`` once it exits."""

    def __enter__(self):
        self._previous = obs.active()
        self.telemetry = obs.configure()
        return self.telemetry

    def __exit__(self, *exc_info):
        obs.install(self._previous)
        self.telemetry.close()


def _standalone(instance, config):
    """``name -> result`` through the two containment edges of
    DESIGN.md §7.4, every search a bare ``Explorer(...).explore()``
    outside any block, and the ``orbits_merged`` those searches sum to."""
    searched = {}
    merged = 0

    def direct(name):
        nonlocal merged
        if name not in searched:
            with _Counted() as telemetry:
                searched[name] = Explorer(
                    instance,
                    model(name),
                    queue_bound=config.queue_bound,
                    max_states=config.max_states,
                    engine=config.engine,
                    reduction=config.reduction,
                ).explore()
            merged += telemetry.counters.get("explore.orbits_merged", 0)
        return searched[name]

    def settle(m):
        if m.scope is not NeighborScope.MULTIPLE:
            found = settle(
                CommunicationModel(m.reliability, NeighborScope.MULTIPLE, m.count)
            )
            if found.complete and not found.oscillates:
                return replace(found, model_name=m.name)
        if m.reliability is Reliability.UNRELIABLE:
            found = settle(CommunicationModel(Reliability.RELIABLE, m.scope, m.count))
            if found.oscillates:
                return replace(found, model_name=m.name, complete=False)
        return direct(m.name)

    assert _SHARED.get() is None
    return {m.name: settle(m) for m in ALL_MODELS}, merged


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("label", sorted(INSTANCES))
def test_certification_equals_standalone_searches(label, workers):
    instance = INSTANCES[label]()
    config = CONFIG.replace(workers=workers)
    with _Counted() as telemetry:
        certified = matrix_certification(instance=instance, config=config)
    expected, merged = _standalone(INSTANCES[label](), config)
    assert certified == expected
    for name, result in certified.items():
        assert result.witness == expected[name].witness, name
    assert telemetry.counters.get("explore.orbits_merged", 0) == merged


@pytest.fixture
def orbit_work(monkeypatch):
    """Over every packed search while the fixture lives: orbits computed
    and the distinct raw words among them, ``_image`` calls (image-table
    fills) and the distinct sub-words they translated, and layouts and
    symmetry groups built."""
    work = {"orbits": 0, "raw": set(), "images": 0, "keys": set(),
            "layouts": 0, "groups": 0}
    layout = packed._Layout
    image, orbit, init, compile_group = (
        layout._image, layout.orbit, layout.__init__, layout._compile_group
    )

    def counted_image(self, word, g):
        work["images"] += 1
        work["keys"].add(word)
        return image(self, word, g)

    def counted_orbit(self, raw):
        work["orbits"] += 1
        work["raw"].add(raw)
        return orbit(self, raw)

    def counted_init(self, *args):
        work["layouts"] += 1
        init(self, *args)

    def counted_compile_group(self, *args):
        work["groups"] += 1
        compile_group(self, *args)

    monkeypatch.setattr(layout, "_image", counted_image)
    monkeypatch.setattr(layout, "orbit", counted_orbit)
    monkeypatch.setattr(layout, "__init__", counted_init)
    monkeypatch.setattr(layout, "_compile_group", counted_compile_group)
    return work


def test_cold_certification_computes_each_orbit_once(orbit_work):
    instance = canonical.disagree_grid(2)
    order = len(automorphisms(instance))
    assert order == 8
    matrix_certification(instance=instance, config=CONFIG.replace(workers=1))
    assert orbit_work["raw"]
    assert orbit_work["orbits"] == len(orbit_work["raw"])
    # Each nonzero sub-word is translated once per non-identity element.
    assert orbit_work["keys"] and 0 not in orbit_work["keys"]
    assert orbit_work["images"] == (order - 1) * len(orbit_work["keys"])
    assert orbit_work["layouts"] == orbit_work["groups"] == 1


def test_tables_are_built_once_per_reduction(orbit_work):
    instance = canonical.disagree_grid(2)
    tasks = [
        ExplorationTask.from_config(
            instance, name, CONFIG.replace(reduction=reduction), key=(reduction, name)
        )
        for reduction in ("ample", "none")
        for name in ("R1O", "UMS", "REA")
    ]
    run_explorations(tasks, config=CONFIG.replace(workers=1))
    assert orbit_work["layouts"] == orbit_work["groups"] == 2


def test_a_search_outside_any_block_builds_its_own(orbit_work):
    instance = canonical.disagree_grid(2)
    for name in ("R1O", "RMO"):
        Explorer(instance, model(name), queue_bound=2).explore()
    assert orbit_work["layouts"] == orbit_work["groups"] == 2


def test_instances_are_not_shared_by_equality(orbit_work):
    first, second = canonical.disagree_grid(2), canonical.disagree_grid(2)
    tasks = [
        ExplorationTask.from_config(instance, name, CONFIG, key=(index, name))
        for index, instance in enumerate((first, second))
        for name in ("R1O", "RMO")
    ]
    run_explorations(tasks, config=CONFIG.replace(workers=1))
    assert orbit_work["layouts"] == orbit_work["groups"] == 2


#: What the instance object holds after a search: its own lazy caches,
#: the codec and the reduction tables — and no layout.
INSTANCE_KEYS = frozenset(
    {
        "_automorphisms",
        "_channels_cache",
        "_codec_cache",
        "_feasible_cache",
        "_in_channels_cache",
        "_neighbors_cache",
        "_nodes_cache",
        "_out_channels_cache",
        "_rank_table",
        "_reduction_paths",
        "_reduction_tables",
        "_route_universe",
        "_selection_order",
        "_sorted_nodes_cache",
        "dest",
        "edges",
        "name",
        "permitted",
        "rank",
    }
)


def test_nothing_outlives_the_block():
    instance = canonical.disagree_grid(2)
    matrix_certification(instance=instance, config=CONFIG.replace(workers=1))
    assert _SHARED.get() is None
    assert set(instance.__dict__) == INSTANCE_KEYS
    can_oscillate(instance, model("UEO"), config=CONFIG)
    assert _SHARED.get() is None
    assert set(instance.__dict__) == INSTANCE_KEYS


def test_orbit_memo_is_not_pinned_to_the_instance():
    # BAD GADGET (group of order 3) with the reducer off: UMS runs to
    # the state budget, so the second search canonicalizes ten times
    # the words of the first.
    instance = canonical.bad_gadget()
    sizes = []
    for budget in (1_000, 10_000):
        config = CONFIG.replace(reduction="none", step_bound=budget, workers=1)
        task = ExplorationTask.from_config(
            instance, "UMS", config, reliable_twin_first=False
        )
        [(_, result)] = run_explorations([task], config=config)
        assert result.states_explored == budget
        sizes.append(len(pickle.dumps(instance)))
    assert _SHARED.get() is None
    assert sizes[0] == sizes[1]
