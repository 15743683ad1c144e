"""Tests of the benchmark's own arithmetic: ``python3 -m pytest perfbench``."""

import json
import sys
import threading
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(1, str(HERE.parent / "src"))

import pytest  # noqa: E402

from layers import LAYERS, Layer, Patches, Tracer, wrap  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def span(tracer, clock, name, before, after, children=()):
    """``name`` spends ``before`` s, runs ``children``, then ``after`` s."""
    frame = tracer.enter(name)
    clock.advance(before)
    for child in children:
        child()
    clock.advance(after)
    tracer.exit(frame)


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.window():
        clock.advance(0.5)  # driver time: unattributed
        span(tracer, clock, "a", 1.0, 2.0, children=[
            lambda: span(tracer, clock, "b", 0.25, 0.25, children=[
                lambda: span(tracer, clock, "c", 0.125, 0.0),
            ]),
            lambda: span(tracer, clock, "c", 0.375, 0.0),
        ])
        clock.advance(0.25)
    assert tracer.self_s("a") == pytest.approx(3.0)
    assert tracer.total_s("a") == pytest.approx(4.0)
    assert tracer.self_s("b") == pytest.approx(0.5)
    assert tracer.self_s("c") == pytest.approx(0.5)
    assert tracer.calls("c") == 2
    assert tracer.wall_s == pytest.approx(4.75)
    assert tracer.unattributed_s == pytest.approx(0.75)
    layers = sum(tracer.self_s(name) for name in "abc")
    assert layers + tracer.unattributed_s == pytest.approx(tracer.wall_s)
    assert tracer.check() is None


def test_spans_outside_windows_are_not_recorded():
    clock = FakeClock()
    tracer = Tracer(clock)
    span(tracer, clock, "setup", 1.0, 0.0)
    with tracer.window():
        span(tracer, clock, "a", 1.0, 0.0)
    assert tracer.calls("setup") == 0
    assert tracer.wall_s == pytest.approx(1.0)
    assert tracer.check() is None


def test_a_blocked_parent_adopts_a_span_from_another_thread():
    clock = FakeClock()
    tracer = Tracer(clock)

    def server_side():
        span(tracer, clock, "server", 0.75, 0.0)

    with tracer.window():
        parent = tracer.enter("client")
        clock.advance(0.25)
        worker = threading.Thread(target=server_side)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        tracer.exit(parent)
    assert tracer.self_s("client") == pytest.approx(0.25)
    assert tracer.self_s("server") == pytest.approx(0.75)
    assert tracer.check() is None


def test_out_of_order_exits_fail_the_check():
    clock = FakeClock()
    tracer = Tracer(clock)
    with tracer.window():
        outer = tracer.enter("a")
        inner = tracer.enter("b")
        clock.advance(1.0)
        tracer.exit(outer)
        tracer.exit(inner)
    assert tracer.violations == 1
    assert "nesting" in tracer.check()


def test_unclosed_spans_fail_the_check():
    tracer = Tracer(FakeClock())
    with tracer.window():
        tracer.enter("a")
    assert tracer.check() is not None


def test_wrap_runs_hooks_with_self_time_and_passes_results_through():
    clock = FakeClock()
    tracer = Tracer(clock)
    seen = []

    def work(x):
        clock.advance(2.0)
        return x * 2

    layer = Layer(
        "w", "unused:work",
        before=lambda args, kwargs: args[0],
        after=lambda t, args, kwargs, result, noted, own: seen.append((noted, result, own)),
    )
    wrapped = wrap(tracer, layer, work)
    assert wrapped(3) == 6  # no window open: called straight through
    assert seen == []
    with tracer.window():
        assert wrapped(4) == 8
    assert seen == [(4, 8, pytest.approx(2.0))]
    assert tracer.self_s("w") == pytest.approx(2.0)


def test_patches_rebind_every_copy_and_restore():
    import repro.core.canonical as canonical
    import repro.engine.packed as packed
    import repro.serve.service as service

    original_hash = canonical.canonical_hash
    original_autos = packed.automorphisms
    original_init = packed.PackedExplorer.__init__
    patches = Patches(Tracer())
    patches.apply()
    try:
        assert canonical.canonical_hash is not original_hash
        assert service.canonical_hash is canonical.canonical_hash
        assert packed.automorphisms is not original_autos
        assert packed.PackedExplorer.__init__ is not original_init
    finally:
        patches.restore()
    assert canonical.canonical_hash is original_hash
    assert service.canonical_hash is original_hash
    assert packed.automorphisms is original_autos
    assert packed.PackedExplorer.__init__ is original_init


def test_benchmark_json_lists_exactly_the_reported_metrics():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in run.END_TO_END]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(
        run._per_layer_names()
    )
    from workloads import WORKLOADS

    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {layer.name for layer in LAYERS} <= {
        name.rsplit(".", 1)[0] for name, _ in run._per_layer_names()
    }


def test_interpolated_percentile():
    import statistics

    import run

    values = list(range(1, 101))
    assert run.percentile(values, 50) == statistics.median(values) == 50.5
    assert run.percentile(values, 99) == pytest.approx(99.01)
    assert run.percentile(values, 100) == 100
    assert run.percentile([3.0, 1.0, 2.0], 50) == 2.0
    assert run.percentile([7.0], 99) == 7.0
