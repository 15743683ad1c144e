"""Tests for the telemetry core: registries, events, lifecycle.

Span timings are fed by :func:`repro.obs.tracing.trace_span`; the
tests of a span's totals live in ``TestSpanTimings`` below."""

import json
import os
import threading

import pytest

from repro import obs
from repro.obs.telemetry import NULL, NullTelemetry, Telemetry
from repro.obs.tracing import trace_span


@pytest.fixture(autouse=True)
def _restore_active():
    """Every test leaves the process-wide telemetry as it found it."""
    previous = obs.active()
    yield
    obs.install(previous)


def read_jsonl(path):
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


class TestNullTelemetry:
    def test_disabled_by_default(self):
        assert obs.active() is NULL
        assert NULL.enabled is False

    def test_all_operations_are_noops(self):
        tel = NullTelemetry()
        tel.count("x")
        tel.gauge("y", 3)
        tel.timing("z", 0.5)
        tel.event("verdict", model="R1O")
        tel.heartbeat("explore", states=10)
        tel.add_listener(object())
        assert tel.summary() == {}
        tel.close()

    def test_span_is_shared_singleton(self):
        assert obs.active() is NULL
        assert trace_span("a") is trace_span("b")


class TestRegistries:
    def test_counters_accumulate(self):
        tel = Telemetry()
        tel.count("cache.hit")
        tel.count("cache.hit", 4)
        assert tel.counters["cache.hit"] == 5

    def test_gauges_keep_last_value(self):
        tel = Telemetry()
        tel.gauge("worker.count", 2)
        tel.gauge("worker.count", 8)
        assert tel.gauges["worker.count"] == 8

    def test_timings_track_calls_total_max(self):
        tel = Telemetry()
        tel.timing("explore.search", 0.25)
        tel.timing("explore.search", 1.0)
        tel.timing("explore.search", 0.5)
        assert tel.summary()["spans"]["explore.search"] == {
            "calls": 3,
            "total_s": 1.75,
            "max_s": 1.0,
        }

    def test_span_totals_are_read_from_the_histograms(self):
        tel = Telemetry()
        for seconds in (0.1, 0.2, 0.7, 0.3):
            tel.timing("explore.search", seconds)
        tel.timing("cache.get", 0.001)
        spans = tel.summary()["spans"]
        assert list(spans) == tel.metrics.names()
        for name, span in spans.items():
            _, count, total, peak = tel.metrics.histogram(name).cumulative()
            assert (span["calls"], span["total_s"], span["max_s"]) == (
                count,
                round(total, 6),
                round(peak, 6),
            )

    def test_summary_shape(self):
        tel = Telemetry()
        tel.count("explore.states", 42)
        tel.gauge("worker.count", 2)
        tel.timing("explore.search", 0.5)
        summary = tel.summary()
        assert summary["counters"] == {"explore.states": 42}
        assert summary["gauges"] == {"worker.count": 2}
        assert summary["spans"]["explore.search"]["calls"] == 1
        assert summary["elapsed_s"] >= 0.0


class TestGrowthMerge:
    """A pool worker ships ``growth_since(mark)``; the parent merges it."""

    def test_merged_growth_matches_doing_the_work(self):
        worker = Telemetry()
        worker.count("explore.runs")
        worker.timing("explore.search", 0.25)
        mark = worker.mark()
        worker.count("explore.runs", 2)
        worker.count("explore.orbits_merged", 0)
        worker.timing("explore.search", 0.5)
        worker.timing("cache.get", 0.001)
        parent = Telemetry()
        parent.merge(worker.growth_since(mark))
        assert parent.counters == {"explore.runs": 2, "explore.orbits_merged": 0}
        assert parent.summary()["spans"] == {
            "cache.get": {"calls": 1, "total_s": 0.001, "max_s": 0.001},
            "explore.search": {"calls": 1, "total_s": 0.5, "max_s": 0.5},
        }
        assert parent.metrics.names() == ["cache.get", "explore.search"]
        counts, count, total, peak = parent.metrics.histogram(
            "explore.search"
        ).cumulative()
        assert (sum(counts), count, total, peak) == (1, 1, 0.5, 0.5)

    def test_merge_keeps_the_larger_peak(self):
        worker = Telemetry()
        mark = worker.mark()
        worker.timing("explore.search", 0.2)
        parent = Telemetry()
        parent.timing("explore.search", 0.9)
        parent.merge(worker.growth_since(mark))
        assert parent.summary()["spans"]["explore.search"]["max_s"] == 0.9

    def test_unchanged_names_are_not_shipped(self):
        tel = Telemetry()
        tel.count("explore.runs")
        tel.timing("explore.search", 0.25)
        assert tel.growth_since(tel.mark()) == ({}, {})


class TestSpanTimings:
    def test_span_records_a_timing(self):
        tel = Telemetry()
        obs.install(tel)
        with trace_span("reduction.tables"):
            pass
        span = tel.summary()["spans"]["reduction.tables"]
        assert span["calls"] == 1
        assert span["total_s"] >= 0.0
        assert span["max_s"] == span["total_s"]

    def test_nested_spans_accumulate_independently(self):
        tel = Telemetry()
        obs.install(tel)
        with trace_span("explore.search"):
            with trace_span("cache.get"):
                pass
        spans = tel.summary()["spans"]
        assert spans["explore.search"]["calls"] == 1
        assert spans["cache.get"]["calls"] == 1

    def test_concurrent_spans_lose_no_call(self):
        tel = Telemetry()
        obs.install(tel)

        def record():
            for _ in range(500):
                with trace_span("x"):
                    pass

        threads = [threading.Thread(target=record) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        _, count, _, _ = tel.metrics.histogram("x").cumulative()
        assert tel.summary()["spans"]["x"]["calls"] == count == 2000

    def test_concurrent_counts_lose_no_increment(self):
        tel = Telemetry()

        def record():
            for _ in range(200_000):
                tel.count("cache.hit")

        threads = [threading.Thread(target=record) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert tel.counters["cache.hit"] == 800_000

    def test_each_telemetry_owns_its_histograms(self):
        first = Telemetry()
        obs.install(first)
        with trace_span("first.only"):
            pass
        second = Telemetry()
        obs.install(second)
        with trace_span("second.only"):
            pass
        assert first.metrics.names() == ["first.only"]
        assert second.metrics.names() == ["second.only"]
        text = obs.metrics_text()
        assert "repro_second_only_seconds_count 1" in text
        assert "first_only" not in text

    def test_no_histograms_without_live_telemetry(self):
        tel = Telemetry()
        obs.install(tel)
        with trace_span("explore.search"):
            pass
        obs.install(NULL)
        text = obs.metrics_text(counters={"serve.requests": 1})
        assert "repro_serve_requests_total 1" in text
        assert "_seconds" not in text


class TestEventSink:
    def test_run_summary_and_event_records(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tel = Telemetry(path, run={"command": "explore"})
        tel.event("verdict", model="R1O", oscillates=True)
        tel.count("explore.runs")
        tel.close()
        records = read_jsonl(path)
        assert [r["type"] for r in records] == ["run", "verdict", "summary"]
        assert records[0]["command"] == "explore"
        assert records[0]["schema"] == obs.SCHEMA_VERSION
        assert records[0]["pid"] == os.getpid()
        import socket

        assert records[0]["host"] == socket.gethostname()
        assert records[1]["model"] == "R1O"
        assert records[2]["counters"] == {"explore.runs": 1}

    def test_memory_only_telemetry_writes_nothing(self):
        tel = Telemetry()
        tel.event("verdict", model="R1O")
        tel.close()  # no file → nothing to flush, no error

    def test_append_mode_delimits_sequential_runs(self, tmp_path):
        path = tmp_path / "t.jsonl"
        for _ in range(2):
            Telemetry(path).close()
        assert [r["type"] for r in read_jsonl(path)] == [
            "run", "summary", "run", "summary",
        ]

    def test_close_is_idempotent(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tel = Telemetry(path)
        tel.close()
        tel.close()
        assert sum(r["type"] == "summary" for r in read_jsonl(path)) == 1

    def test_concurrent_events_do_not_tear(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tel = Telemetry(path)

        def emit(worker):
            for index in range(50):
                tel.event("verdict", worker=worker, index=index)

        threads = [threading.Thread(target=emit, args=(w,)) for w in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        tel.close()
        records = read_jsonl(path)
        assert sum(r["type"] == "verdict" for r in records) == 200


class TestHeartbeatsAndListeners:
    def test_heartbeat_event_and_listener(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tel = Telemetry(path)
        seen = []

        class Listener:
            def on_heartbeat(self, phase, fields):
                seen.append((phase, fields))

        tel.add_listener(Listener())
        tel.heartbeat("explore", states=1024, frontier=9)
        tel.close()
        assert len(seen) == 1
        phase, fields = seen[0]
        assert phase == "explore"
        assert fields["states"] == 1024
        assert "elapsed_s" in fields  # filled in by default
        beat = [r for r in read_jsonl(path) if r["type"] == "heartbeat"]
        assert beat[0]["phase"] == "explore" and beat[0]["frontier"] == 9

    def test_remove_listener(self):
        tel = Telemetry()
        calls = []

        class Listener:
            def on_heartbeat(self, phase, fields):
                calls.append(phase)

        listener = Listener()
        tel.add_listener(listener)
        tel.remove_listener(listener)
        tel.remove_listener(listener)  # absent → no-op
        tel.heartbeat("explore")
        assert calls == []


class TestModuleLifecycle:
    def test_configure_install_shutdown(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tel = obs.configure(path, run={"command": "matrix"})
        assert obs.active() is tel
        obs.shutdown()
        assert obs.active() is NULL
        assert [r["type"] for r in read_jsonl(path)] == ["run", "summary"]

    def test_install_returns_previous(self):
        tel = Telemetry()
        previous = obs.install(tel)
        assert obs.install(previous) is tel

    def test_shutdown_without_configure_is_safe(self):
        obs.install(NULL)
        obs.shutdown()
        assert obs.active() is NULL
