"""Counters, gauges, span timings, and the JSONL event sink.

One process owns one *active* telemetry object (module-level, like a
logging root).  By default it is :data:`NULL`, a no-op whose methods
cost one attribute lookup — the engines guard their per-checkpoint work
behind ``tel.enabled`` so a disabled run pays nothing measurable.
:func:`configure` swaps in a live :class:`Telemetry`, optionally backed
by a JSONL file (the CLI's ``--telemetry PATH``; the
:data:`TELEMETRY_ENV_VAR` environment variable is the fallback).

**Differential safety.**  Telemetry only *observes*: no verdict,
witness, state count, or cache key depends on whether it is enabled
(``tests/engine/test_telemetry_differential.py`` pins this).

**Span timings** are fed by :func:`repro.obs.tracing.trace_span`, the
one timed-region primitive, and by :meth:`Telemetry.timing` for
durations the fan-out derives.  Each span name has one latency
histogram in the telemetry's own
:class:`~repro.obs.metrics.MetricsRegistry`, and the summary's
``(calls, total seconds, max seconds)`` are read from it.  Span names
are dot-separated; the first segment is the *phase* the ``repro stats``
aggregator groups by (``explore`` / ``reduction`` / ``cache`` /
``worker``).

**Counters and gauges** are a flat name → value registry: counters
accumulate (``cache.hit``, ``explore.states``), gauges keep the last
written value (``worker.count``).

**Events** are JSONL records ``{"ts": ..., "type": ..., ...}`` appended
to the sink: one ``run`` record at configure time, ``heartbeat``
records from long-running searches (geometric checkpoints, so the
stream stays small), ``verdict`` records per exploration, and one
``summary`` record — the counter/gauge/span totals — at close.  Lines
are written whole and flushed, so concurrent appenders (rare: workers
report through the parent by design) interleave without tearing on
POSIX.
"""

from __future__ import annotations

import json
import os
import socket
import sys
import threading
import time

from ..faults import fault_point
from . import metrics as _metrics_module

__all__ = [
    "SCHEMA_VERSION",
    "TELEMETRY_ENV_VAR",
    "NULL",
    "NullTelemetry",
    "Telemetry",
    "active",
    "configure",
    "install",
    "metrics_text",
    "shutdown",
]

#: Bumped whenever the JSONL record shapes change.  v2 added the
#: ``host`` field on ``run`` records and the ``span`` record type
#: (distributed tracing, :mod:`repro.obs.tracing`).
SCHEMA_VERSION = 2

#: Environment fallback for the CLI's ``--telemetry PATH``.
TELEMETRY_ENV_VAR = "REPRO_TELEMETRY"


class NullTelemetry:
    """The disabled sink: every operation is a no-op.

    Kept API-compatible with :class:`Telemetry` so call sites never
    branch beyond the ``enabled`` guard they use for non-trivial work.
    """

    enabled = False

    def count(self, name: str, n: int = 1) -> None:
        pass

    def gauge(self, name: str, value) -> None:
        pass

    def timing(self, name: str, seconds: float) -> None:
        pass

    def event(self, type_: str, **fields) -> None:
        pass

    def heartbeat(self, phase: str, **fields) -> None:
        pass

    def add_listener(self, listener) -> None:
        pass

    def remove_listener(self, listener) -> None:
        pass

    def summary(self) -> dict:
        return {}

    def emit_summary(self) -> None:
        pass

    def close(self) -> None:
        pass


NULL = NullTelemetry()


class Telemetry:
    """A live instrumentation registry, optionally writing JSONL.

    ``path=None`` keeps the registry in memory only (used by the
    ``--progress`` reporter, which listens to heartbeats without a
    file).  The file is opened in append mode so several sequential
    runs can share one stream; each run is delimited by its ``run``
    and ``summary`` records.
    """

    enabled = True

    def __init__(
        self,
        path: "str | os.PathLike | None" = None,
        run: "dict | None" = None,
    ) -> None:
        self.path = None if path is None else os.fspath(path)
        self.counters: dict = {}
        self.gauges: dict = {}
        self.metrics = _metrics_module.MetricsRegistry()
        self._listeners: list = []
        self._lock = threading.Lock()
        # Request threads and batch workers count into one telemetry;
        # ``_lock`` is held across sink writes, so counts take their own.
        self._count_lock = threading.Lock()
        self._started = time.perf_counter()
        self._closed = False
        self._handle = None
        self._sink_failed = False
        if self.path is not None:
            self._handle = open(self.path, "a", encoding="utf-8")
        meta = {
            "schema": SCHEMA_VERSION,
            "pid": os.getpid(),
            "host": socket.gethostname(),
            "python": sys.version.split()[0],
        }
        if run:
            meta.update(run)
        self.event("run", **meta)

    # -- registries -----------------------------------------------------
    def count(self, name: str, n: int = 1) -> None:
        with self._count_lock:
            self.counters[name] = self.counters.get(name, 0) + n

    def gauge(self, name: str, value) -> None:
        self.gauges[name] = value

    def timing(self, name: str, seconds: float) -> None:
        self.metrics.observe(name, seconds)

    # -- merging another process's growth (pool workers) -----------------
    def mark(self) -> tuple:
        """The registries as they stand, for :meth:`growth_since`."""
        return (
            dict(self.counters),
            {
                name: self.metrics.histogram(name).cumulative()
                for name in self.metrics.names()
            },
        )

    def growth_since(self, mark) -> tuple:
        """``(counters, histograms)`` this registry gained since ``mark``.

        A counter created since ``mark`` is kept even at zero growth,
        so a registry that merges the growth has the same names as one
        that did the work itself.  Each grown span carries its
        histogram's growth as the
        :meth:`~repro.obs.metrics.LogHistogram.merge` arguments, with
        the peak over the histogram's whole life.
        """
        counters_0, histograms_0 = mark
        counters = {
            name: value - counters_0.get(name, 0)
            for name, value in self.counters.items()
            if name not in counters_0 or value != counters_0[name]
        }
        histograms = {}
        for name in self.metrics.names():
            counts, count, total, peak = self.metrics.histogram(name).cumulative()
            counts_0, count_0, total_0, _ = histograms_0.get(
                name, ((0,) * len(counts), 0, 0.0, 0.0)
            )
            if count == count_0:
                continue
            histograms[name] = (
                [now - then for now, then in zip(counts, counts_0)],
                count - count_0,
                total - total_0,
                peak,
            )
        return counters, histograms

    def merge(self, growth) -> None:
        """Add another registry's :meth:`growth_since` to this one."""
        counters, histograms = growth
        for name, value in counters.items():
            self.count(name, value)
        for name, histogram in histograms.items():
            self.metrics.histogram(name).merge(*histogram)

    # -- events ---------------------------------------------------------
    def event(self, type_: str, **fields) -> None:
        if self._handle is None:
            # Memory-only mode never "drops" anything — there is no sink
            # to miss.  A *failed* sink is different: every event that
            # would have been written is accounted for, so operators can
            # see exactly how much of a stream is missing.
            if self._sink_failed:
                self.count("telemetry.events_dropped")
            return
        record = {"ts": round(time.time(), 6), "type": type_}
        record.update(fields)
        line = json.dumps(record, separators=(",", ":"), sort_keys=True)
        try:
            line = fault_point("telemetry.emit", line)
            with self._lock:
                handle = self._handle
                if handle is None:
                    return
                handle.write(line + "\n")
                handle.flush()
        except OSError as error:
            # Telemetry observes only: a dead sink (disk full, pipe
            # closed) must never abort the run it is watching.  Drop
            # the stream, keep the in-memory registries.
            self._degrade_sink(error)

    def _degrade_sink(self, error: OSError) -> None:
        with self._lock:
            handle, self._handle = self._handle, None
            self._sink_failed = True
        if handle is None:
            return
        try:
            handle.close()
        except OSError:
            pass
        self.count("telemetry.emit_error")
        # The event that hit the failure never reached the file either.
        self.count("telemetry.events_dropped")
        print(
            f"repro: warning: telemetry sink disabled after write "
            f"failure: {error}",
            file=sys.stderr,
        )

    def heartbeat(self, phase: str, **fields) -> None:
        fields.setdefault("elapsed_s", self.elapsed())
        self.event("heartbeat", phase=phase, **fields)
        for listener in self._listeners:
            listener.on_heartbeat(phase, fields)

    # -- listeners (live progress reporters) ----------------------------
    def add_listener(self, listener) -> None:
        self._listeners.append(listener)

    def remove_listener(self, listener) -> None:
        if listener in self._listeners:
            self._listeners.remove(listener)

    # -- lifecycle ------------------------------------------------------
    def elapsed(self) -> float:
        return round(time.perf_counter() - self._started, 6)

    def summary(self) -> dict:
        spans = {}
        for name in self.metrics.names():
            _, calls, total, peak = self.metrics.histogram(name).cumulative()
            spans[name] = {
                "calls": calls,
                "total_s": round(total, 6),
                "max_s": round(peak, 6),
            }
        return {
            "elapsed_s": self.elapsed(),
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "spans": spans,
        }

    def emit_summary(self) -> None:
        self.event("summary", **self.summary())

    def close(self) -> None:
        """Emit the final summary record and release the sink (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.emit_summary()
        if self._handle is not None:
            self._handle.close()
            self._handle = None


# ----------------------------------------------------------------------
# The process-wide active telemetry.
# ----------------------------------------------------------------------
_active: "Telemetry | NullTelemetry" = NULL


def active() -> "Telemetry | NullTelemetry":
    """The process's current telemetry (the no-op sink by default)."""
    return _active


def install(telemetry) -> "Telemetry | NullTelemetry":
    """Swap the active telemetry; returns the previous one (for tests)."""
    global _active
    previous = _active
    _active = telemetry
    return previous


def configure(
    path: "str | os.PathLike | None" = None,
    run: "dict | None" = None,
) -> Telemetry:
    """Activate a live telemetry writing to ``path`` (or memory-only)."""
    telemetry = Telemetry(path, run=run)
    install(telemetry)
    return telemetry


def metrics_text(counters: "dict | None" = None, gauges: "dict | None" = None) -> str:
    """A ``GET /metrics`` body (Prometheus text exposition).

    The active telemetry's counters and gauges, overlaid with the
    caller's own (which win: a daemon's request counters are
    authoritative even when telemetry is off), plus the active
    telemetry's latency histograms (none while telemetry is off).
    """
    merged_counters = dict(getattr(_active, "counters", None) or {})
    merged_counters.update(counters or {})
    merged_gauges = dict(getattr(_active, "gauges", None) or {})
    merged_gauges.update(gauges or {})
    return _metrics_module.render_prometheus(
        metrics=getattr(_active, "metrics", None),
        counters=merged_counters,
        gauges=merged_gauges,
    )


def shutdown() -> None:
    """Close and deactivate the live telemetry, if one is installed."""
    global _active
    current = _active
    _active = NULL
    current.close()
