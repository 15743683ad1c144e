"""The histogram primitive: buckets, windows, quantiles, exposition."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import (
    LogHistogram,
    MetricsRegistry,
    parse_prometheus,
    quantile_from_buckets,
    render_prometheus,
)


class FakeClock:
    """A manual monotone clock so window tests never sleep."""

    def __init__(self, start=0.0):
        self.now = start

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestBucketBoundaries:
    def test_geometric_spacing(self):
        hist = LogHistogram(lowest=1e-3, highest=1.0, buckets_per_decade=2)
        assert hist.boundaries[0] == pytest.approx(1e-3)
        assert hist.boundaries[-1] == pytest.approx(1.0)
        ratios = [
            b / a for a, b in zip(hist.boundaries, hist.boundaries[1:])
        ]
        # Constant ratio = constant relative error per bucket.
        assert all(r == pytest.approx(10 ** 0.5) for r in ratios)

    def test_default_shape_covers_microseconds_to_kiloseconds(self):
        hist = LogHistogram()
        assert hist.boundaries[0] == pytest.approx(1e-6)
        assert hist.boundaries[-1] == pytest.approx(1e3)
        # 9 decades at 5 per decade + both endpoints.
        assert len(hist.boundaries) == 46

    def test_invalid_shapes_rejected(self):
        with pytest.raises(ValueError):
            LogHistogram(lowest=0.0)
        with pytest.raises(ValueError):
            LogHistogram(lowest=1.0, highest=0.5)
        with pytest.raises(ValueError):
            LogHistogram(buckets_per_decade=0)
        with pytest.raises(ValueError):
            LogHistogram(window_s=0)
        with pytest.raises(ValueError):
            LogHistogram(slices=0)

    def test_boundary_value_lands_in_le_bucket(self):
        hist = LogHistogram(lowest=1e-3, highest=1.0, buckets_per_decade=1)
        # le semantics: a sample equal to a boundary counts under it.
        assert hist._bucket_index(1e-3) == 0
        assert hist._bucket_index(1e-2) == 1
        assert hist._bucket_index(2e-2) == 2

    def test_underflow_and_overflow(self):
        hist = LogHistogram(lowest=1e-3, highest=1.0, buckets_per_decade=1)
        hist.observe(1e-9)  # below lowest → first bucket
        hist.observe(50.0)  # above highest → overflow cell
        counts, count, total, peak = hist.cumulative()
        assert counts[0] == 1
        assert counts[-1] == 1
        assert count == 2
        assert total == pytest.approx(50.0 + 1e-9)
        assert peak == 50.0


class TestWindowRotation:
    def test_window_forgets_old_samples_cumulative_does_not(self):
        clock = FakeClock()
        hist = LogHistogram(window_s=60.0, slices=6, clock=clock)
        hist.observe(0.010)
        assert sum(hist.window_counts()) == 1
        clock.advance(120.0)  # two full windows later
        assert sum(hist.window_counts()) == 0
        assert hist.quantile(0.5) is None
        assert hist.quantile(0.5, window=False) is not None
        assert hist.count == 1

    def test_samples_inside_window_survive_rotation(self):
        clock = FakeClock()
        hist = LogHistogram(window_s=60.0, slices=6, clock=clock)
        for _ in range(5):
            hist.observe(0.010)
            clock.advance(10.0)  # one slice per sample
        # 50 s elapsed: everything still inside the 60 s window.
        assert sum(hist.window_counts()) == 5
        clock.advance(25.0)
        # Oldest slices now expired; newest still visible.
        remaining = sum(hist.window_counts())
        assert 0 < remaining < 5

    def test_ring_stays_bounded_across_long_idle(self):
        clock = FakeClock()
        hist = LogHistogram(window_s=60.0, slices=6, clock=clock)
        hist.observe(0.010)
        clock.advance(3600.0)
        hist.observe(0.010)
        assert len(hist._ring) <= hist.slices + 1


class TestMerge:
    def test_merge_equals_observing_the_samples(self):
        clock = FakeClock()
        merged = LogHistogram(window_s=60.0, clock=clock)
        other = LogHistogram(window_s=60.0, clock=clock)
        both = LogHistogram(window_s=60.0, clock=clock)
        for value in (0.002, 0.5):
            merged.observe(value)
            both.observe(value)
        for value in (0.002, 0.03, 7.0):
            other.observe(value)
            both.observe(value)
        merged.merge(*other.cumulative())
        assert merged.cumulative() == both.cumulative()
        assert merged.cumulative()[3] == 7.0
        assert merged.window_counts() == both.window_counts()

    def test_merged_samples_age_out_of_the_window(self):
        clock = FakeClock()
        hist = LogHistogram(window_s=60.0, slices=6, clock=clock)
        other = LogHistogram(window_s=60.0, slices=6, clock=clock)
        other.observe(0.010)
        hist.merge(*other.cumulative())
        assert sum(hist.window_counts()) == 1
        clock.advance(120.0)
        assert sum(hist.window_counts()) == 0
        assert hist.count == 1

    def test_different_boundaries_rejected(self):
        hist = LogHistogram()
        other = LogHistogram(buckets_per_decade=2)
        other.observe(0.010)
        with pytest.raises(ValueError, match="boundaries"):
            hist.merge(*other.cumulative())


class TestQuantiles:
    def test_empty_histogram_has_no_quantiles(self):
        hist = LogHistogram()
        assert hist.quantile(0.5) is None
        assert hist.quantile(0.99) is None

    def test_quantile_reports_bucket_upper_bound(self):
        hist = LogHistogram()
        for _ in range(10):
            hist.observe(0.0123)
        p50 = hist.quantile(0.5)
        assert p50 >= 0.0123
        # Never more than one bucket ratio above the sample.
        assert p50 <= 0.0123 * 10 ** (1 / 5)

    def test_q_validation(self):
        hist = LogHistogram()
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                hist.quantile(bad)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=1e-7, max_value=5e3),
            min_size=1,
            max_size=60,
        ),
        st.floats(min_value=0.01, max_value=1.0),
        st.floats(min_value=0.01, max_value=1.0),
    )
    def test_quantile_monotone_in_q_and_never_below_min(self, values, q1, q2):
        hist = LogHistogram()
        for value in values:
            hist.observe(value)
        low, high = sorted((q1, q2))
        q_low = hist.quantile(low)
        q_high = hist.quantile(high)
        assert q_low is not None and q_high is not None
        assert q_low <= q_high
        # Upper-bound reporting: p100 never under-reports the max
        # (capped at the top boundary for overflow samples).
        top = hist.boundaries[-1]
        assert hist.quantile(1.0) >= min(max(values), top)


class TestRegistry:
    def test_get_or_create_is_stable(self):
        reg = MetricsRegistry()
        assert reg.histogram("serve.request") is reg.histogram("serve.request")
        reg.observe("serve.request", 0.01)
        assert reg.names() == ["serve.request"]
        assert reg.histogram("serve.request").count == 1


class TestPrometheusExposition:
    def test_render_parse_round_trip(self):
        reg = MetricsRegistry()
        reg.observe("serve.request", 0.020)
        reg.observe("serve.request", 0.500)
        text = render_prometheus(
            metrics=reg,
            counters={"serve.requests": 7},
            gauges={"serve.queue_depth": 3},
        )
        samples = parse_prometheus(text)
        assert samples[("repro_serve_requests_total", ())] == 7
        assert samples[("repro_serve_queue_depth", ())] == 3
        assert samples[("repro_serve_request_seconds_count", ())] == 2
        inf_key = (
            "repro_serve_request_seconds_bucket",
            (("le", "+Inf"),),
        )
        assert samples[inf_key] == 2
        p99_key = (
            "repro_serve_request_seconds_window",
            (("quantile", "0.99"),),
        )
        assert samples[p99_key] >= 0.5

    def test_bucket_series_is_cumulative_and_monotone(self):
        reg = MetricsRegistry()
        for value in (1e-5, 1e-3, 1e-1, 10.0):
            reg.observe("x", value)
        samples = parse_prometheus(render_prometheus(metrics=reg))
        buckets = sorted(
            (
                math.inf if raw == "+Inf" else float(raw),
                value,
            )
            for (name, labels), value in samples.items()
            if name == "repro_x_seconds_bucket"
            for key, raw in labels
            if key == "le"
        )
        counts = [count for _, count in buckets]
        assert counts == sorted(counts)
        assert counts[-1] == 4

    def test_quantile_from_bucket_deltas(self):
        buckets = {0.001: 0, 0.01: 8, 0.1: 9, math.inf: 10}
        assert quantile_from_buckets(buckets, 0.5) == 0.01
        assert quantile_from_buckets(buckets, 0.95) == 0.1
        # The overflow bucket reports the top finite bound.
        assert quantile_from_buckets(buckets, 1.0) == 0.1
        assert quantile_from_buckets({}, 0.5) is None
        assert quantile_from_buckets({0.01: 0}, 0.5) is None

    def test_parser_skips_junk_lines(self):
        samples = parse_prometheus(
            "# HELP nothing\nnot a sample\nok_metric 1\n"
        )
        assert samples == {("ok_metric", ()): 1.0}
