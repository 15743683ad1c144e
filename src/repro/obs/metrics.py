"""Log-bucketed streaming histograms and the Prometheus text exposition.

One primitive answers both "how much total time went where" and "what
is the p99 right now": :class:`LogHistogram`, a fixed-memory streaming
histogram with

* **geometric buckets** — boundaries at ``lowest * 10**(i/n)`` so one
  histogram covers sub-millisecond cache hits and multi-second cold
  certifications with constant relative error (one bucket ≈ ±26% at the
  default 5 buckets per decade);
* **cumulative totals** — monotone per-bucket counters plus ``count``
  and ``sum``, which is exactly the Prometheus histogram contract (the
  scraper derives windowed quantiles with ``histogram_quantile`` over
  ``rate()``), and the running ``max``;
* **a sliding window** — a ring of rotating slices so the process can
  answer "p50/p95/p99 over the last N seconds" locally, without a
  scraper (``repro top`` and the ``/metrics`` window gauges use this).

Quantiles are nearest-rank over bucket counts and report the bucket's
*upper* bound, so ``quantile(q)`` is monotone in ``q`` by construction
and never under-reports a latency.

Each live :class:`~repro.obs.telemetry.Telemetry` owns one
:class:`MetricsRegistry` and feeds every span timing into it; the
histograms are the only record of a span name, so the summary totals
(count, sum, max) and the ``GET /metrics`` distributions of
``serve.request``, ``cache.*``, and ``worker.*`` are read from the same
store.  Everything here is stdlib-only and observation-only: no verdict
depends on a histogram.
"""

from __future__ import annotations

import math
import threading
import time
from bisect import bisect_left

__all__ = [
    "LogHistogram",
    "MetricsRegistry",
    "parse_prometheus",
    "quantile_from_buckets",
    "render_prometheus",
]

#: Default histogram shape: 1 µs … 1000 s at 5 buckets per decade —
#: 45 buckets + one overflow, a few hundred bytes per histogram.
DEFAULT_LOWEST = 1e-6
DEFAULT_HIGHEST = 1e3
DEFAULT_BUCKETS_PER_DECADE = 5

#: Default sliding window: 5 minutes in 6 rotating slices, so windowed
#: quantiles lag at most 50 s behind a load change.
DEFAULT_WINDOW_S = 300.0
DEFAULT_SLICES = 6

#: Quantiles the window gauges on ``/metrics`` report.
WINDOW_QUANTILES = (0.5, 0.95, 0.99)


def _boundaries(lowest: float, highest: float, per_decade: int) -> tuple:
    """Geometric bucket upper bounds from ``lowest`` to ≥ ``highest``."""
    if lowest <= 0 or highest <= lowest:
        raise ValueError("need 0 < lowest < highest")
    if per_decade < 1:
        raise ValueError("buckets_per_decade must be at least 1")
    decades = math.log10(highest / lowest)
    steps = math.ceil(decades * per_decade)
    return tuple(lowest * 10 ** (i / per_decade) for i in range(steps + 1))


class LogHistogram:
    """A fixed-memory streaming histogram with a sliding window.

    Thread-safe: one lock guards both the cumulative totals and the
    window ring.  ``clock`` is injectable (tests rotate the window
    without sleeping); it must be monotone.
    """

    def __init__(
        self,
        lowest: float = DEFAULT_LOWEST,
        highest: float = DEFAULT_HIGHEST,
        buckets_per_decade: int = DEFAULT_BUCKETS_PER_DECADE,
        window_s: float = DEFAULT_WINDOW_S,
        slices: int = DEFAULT_SLICES,
        clock=time.monotonic,
    ) -> None:
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        if slices < 1:
            raise ValueError("slices must be at least 1")
        self.boundaries = _boundaries(lowest, highest, buckets_per_decade)
        self.window_s = float(window_s)
        self.slices = slices
        self._clock = clock
        self._lock = threading.Lock()
        # Cumulative (never reset): one cell per boundary + overflow.
        size = len(self.boundaries) + 1
        self.counts = [0] * size
        self.count = 0
        self.sum = 0.0
        self.max = 0.0
        # Window ring: (slice_start, per-bucket counts).  The head
        # slice is the one currently written to.
        self._slice_s = self.window_s / slices
        self._ring: list = [(self._clock(), [0] * size)]

    # -- recording --------------------------------------------------------
    def _bucket_index(self, value: float) -> int:
        # bisect_left on upper bounds: value == boundary lands in that
        # bucket (le semantics), anything above the top in overflow.
        return bisect_left(self.boundaries, value)

    def _rotate(self, now: float) -> None:
        head_start, _ = self._ring[-1]
        while now - head_start >= self._slice_s:
            head_start += self._slice_s
            self._ring.append((head_start, [0] * (len(self.boundaries) + 1)))
        horizon = now - self.window_s
        while len(self._ring) > 1 and self._ring[0][0] + self._slice_s <= horizon:
            self._ring.pop(0)

    def observe(self, value: float) -> None:
        """Record one sample (negative values clamp to the lowest bucket)."""
        index = self._bucket_index(value)
        with self._lock:
            now = self._clock()
            self._rotate(now)
            self.counts[index] += 1
            self.count += 1
            self.sum += value
            if value > self.max:
                self.max = value
            self._ring[-1][1][index] += 1

    def merge(self, counts, count: int, total: float, peak: float) -> None:
        """Add another histogram's cumulative growth — per-bucket
        ``counts`` over the same boundaries, ``count``, ``total`` and
        its ``peak`` — as if its samples were observed now (a pool
        worker's spans)."""
        if len(counts) != len(self.counts):
            raise ValueError("histogram boundaries differ")
        with self._lock:
            self._rotate(self._clock())
            head = self._ring[-1][1]
            for index, value in enumerate(counts):
                self.counts[index] += value
                head[index] += value
            self.count += count
            self.sum += total
            if peak > self.max:
                self.max = peak

    # -- reading ----------------------------------------------------------
    def window_counts(self) -> list:
        """Per-bucket counts over the sliding window (a fresh list)."""
        with self._lock:
            self._rotate(self._clock())
            merged = [0] * (len(self.boundaries) + 1)
            for _, counts in self._ring:
                for index, value in enumerate(counts):
                    merged[index] += value
        return merged

    def quantile(self, q: float, *, window: bool = True) -> "float | None":
        """Nearest-rank quantile; ``None`` when no samples are in scope.

        Reports the matched bucket's upper bound (the overflow bucket
        reports the top boundary), so the estimate never under-reports
        and is monotone in ``q``.
        """
        if not 0 < q <= 1:
            raise ValueError("q must be in (0, 1]")
        if window:
            counts = self.window_counts()
        else:
            with self._lock:
                counts = list(self.counts)
        total = sum(counts)
        if not total:
            return None
        rank = max(1, math.ceil(q * total))
        seen = 0
        for index, value in enumerate(counts):
            seen += value
            if seen >= rank:
                return self.boundaries[min(index, len(self.boundaries) - 1)]
        return self.boundaries[-1]  # pragma: no cover - defensive

    def cumulative(self) -> "tuple[list, int, float, float]":
        """A consistent ``(per-bucket counts, count, sum, max)`` snapshot."""
        with self._lock:
            return list(self.counts), self.count, self.sum, self.max


class MetricsRegistry:
    """A name → :class:`LogHistogram` registry (get-or-create, locked)."""

    def __init__(self, **histogram_kwargs) -> None:
        self._histogram_kwargs = histogram_kwargs
        self._histograms: dict = {}
        self._lock = threading.Lock()

    def histogram(self, name: str) -> LogHistogram:
        histogram = self._histograms.get(name)
        if histogram is None:
            with self._lock:
                histogram = self._histograms.get(name)
                if histogram is None:
                    histogram = LogHistogram(**self._histogram_kwargs)
                    self._histograms[name] = histogram
        return histogram

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    def names(self) -> list:
        with self._lock:
            return sorted(self._histograms)


# ----------------------------------------------------------------------
# Prometheus text exposition (version 0.0.4)
# ----------------------------------------------------------------------
def _sanitize(name: str) -> str:
    out = "".join(c if c.isalnum() or c == "_" else "_" for c in name)
    return out if not out[:1].isdigit() else "_" + out


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def render_prometheus(
    metrics: "MetricsRegistry | None" = None,
    counters: "dict | None" = None,
    gauges: "dict | None" = None,
    prefix: str = "repro",
) -> str:
    """Render counters, gauges, and histograms as Prometheus text.

    Counters become ``<prefix>_<name>_total``, gauges ``<prefix>_<name>``,
    and each histogram ``<prefix>_<name>_seconds`` with the standard
    ``_bucket{le=...}`` / ``_sum`` / ``_count`` series plus sliding-window
    quantile gauges ``<prefix>_<name>_seconds_window{quantile=...}``
    (absent while the window is empty).
    """
    lines: list = []
    for name, value in sorted((counters or {}).items()):
        metric = f"{prefix}_{_sanitize(name)}_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_format_value(value)}")
    for name, value in sorted((gauges or {}).items()):
        metric = f"{prefix}_{_sanitize(name)}"
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_format_value(value)}")
    if metrics is not None:
        for name in metrics.names():
            histogram = metrics.histogram(name)
            metric = f"{prefix}_{_sanitize(name)}_seconds"
            counts, count, total, _ = histogram.cumulative()
            lines.append(f"# TYPE {metric} histogram")
            cumulative = 0
            for boundary, cell in zip(histogram.boundaries, counts):
                cumulative += cell
                lines.append(
                    f'{metric}_bucket{{le="{boundary:.6g}"}} {cumulative}'
                )
            lines.append(f'{metric}_bucket{{le="+Inf"}} {count}')
            lines.append(f"{metric}_sum {_format_value(round(total, 6))}")
            lines.append(f"{metric}_count {count}")
            window = f"{metric}_window"
            quantile_lines = []
            for q in WINDOW_QUANTILES:
                value = histogram.quantile(q)
                if value is not None:
                    quantile_lines.append(
                        f'{window}{{quantile="{q:g}"}} {_format_value(value)}'
                    )
            if quantile_lines:
                lines.append(f"# TYPE {window} gauge")
                lines.extend(quantile_lines)
    return "\n".join(lines) + "\n"


def parse_prometheus(text: str) -> dict:
    """Parse Prometheus text into ``{(metric, labels): value}``.

    ``labels`` is a sorted tuple of ``(key, value)`` pairs (empty for
    unlabelled series).  Lines that do not parse are skipped — this is
    a scraping client (``repro top``), not a validator.
    """
    samples: dict = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            name_part, value_part = line.rsplit(None, 1)
            value = float(value_part)
        except ValueError:
            continue
        labels: tuple = ()
        if "{" in name_part:
            metric, _, label_blob = name_part.partition("{")
            label_blob = label_blob.rstrip("}")
            pairs = []
            for item in label_blob.split(","):
                if not item:
                    continue
                key, _, raw = item.partition("=")
                pairs.append((key.strip(), raw.strip().strip('"')))
            labels = tuple(sorted(pairs))
        else:
            metric = name_part
        samples[(metric.strip(), labels)] = value
    return samples


def quantile_from_buckets(buckets: dict, q: float) -> "float | None":
    """Nearest-rank quantile from ``{le_bound: cumulative_count}``.

    ``buckets`` is the parsed ``_bucket`` series of one histogram
    (``le`` keys as floats, ``math.inf`` for ``+Inf``); counts may be a
    *delta* between two scrapes, which is how ``repro top`` computes
    windowed quantiles.  Returns ``None`` when the total count is zero.
    """
    if not 0 < q <= 1:
        raise ValueError("q must be in (0, 1]")
    ordered = sorted(buckets.items())
    total = ordered[-1][1] if ordered else 0
    if total <= 0:
        return None
    rank = max(1, math.ceil(q * total))
    finite = [bound for bound, _ in ordered if bound != math.inf]
    top = finite[-1] if finite else math.inf
    for bound, cumulative in ordered:
        if cumulative >= rank:
            return top if bound == math.inf else bound
    return top  # pragma: no cover - defensive
