"""``repro.obs`` — runtime telemetry: spans, counters, JSONL events.

The observability layer the search/cache/fan-out stack reports into
(see ``docs/observability.md``).  Its one instrumentation primitive is
:func:`trace_span`: with telemetry live, every span feeds one latency
histogram — the store both the summary totals and ``/metrics`` read —
and writes one ``span`` record into the trace tree; with telemetry off
it is a shared no-op.
Six pieces:

* :mod:`~repro.obs.telemetry` — the process-wide active sink: a
  counter/gauge registry, its own span histograms, and a structured
  JSONL event stream (run metadata, exploration heartbeats,
  per-verdict records, span records, a final summary), plus
  :func:`metrics_text`, the one ``GET /metrics`` renderer.  Disabled
  by default at negligible cost.
* :mod:`~repro.obs.tracing` — :func:`trace_span` and distributed
  request tracing: W3C-style trace/span IDs propagated across threads,
  HTTP hops, and worker processes; ``span`` JSONL records
  reconstructed by ``repro trace show``.
* :mod:`~repro.obs.metrics` — log-bucketed sliding-window histograms
  (count, sum, max, p50/p95/p99), one registry per live telemetry,
  exported as Prometheus text.
* :mod:`~repro.obs.stats` — aggregates one or more JSONL files into a
  per-phase wall-time breakdown (``repro stats``).
* :mod:`~repro.obs.progress` — a live stderr heartbeat printer
  (``--progress`` on the search commands).
* :mod:`~repro.obs.dashboard` — ``repro top``, the live terminal
  dashboard polling ``/metrics`` or tailing a telemetry JSONL.

Everything here *observes only*: enabling telemetry changes no verdict,
witness, state count, or cache key.  ``repro.obs`` sits below the
engine in the layering — it imports nothing from the rest of the
package except the stdlib-only fault-injection leaf
:mod:`repro.faults` and facade helper :mod:`repro._lazy`, so any
module may report into it.  The JSONL sink
degrades rather than aborts: a write failure disables the stream with
a stderr warning and the run continues.
"""

from .._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".metrics": [
            "LogHistogram",
            "MetricsRegistry",
            "parse_prometheus",
            "render_prometheus",
        ],
        ".progress": ["ProgressReporter"],
        ".stats": [
            "KNOWN_PHASES",
            "TelemetryAggregate",
            "aggregate_files",
            "aggregate_records",
            "read_records",
            "render_counters",
            "render_phase_table",
        ],
        ".telemetry": [
            "NULL",
            "SCHEMA_VERSION",
            "TELEMETRY_ENV_VAR",
            "NullTelemetry",
            "Telemetry",
            "active",
            "configure",
            "install",
            "metrics_text",
            "shutdown",
        ],
        ".tracing": [
            "TRACEPARENT_ENV_VAR",
            "TraceContext",
            "collect_trace",
            "render_trace_tree",
            "trace_span",
        ],
    },
)

__all__ = [
    "KNOWN_PHASES",
    "NULL",
    "SCHEMA_VERSION",
    "TELEMETRY_ENV_VAR",
    "TRACEPARENT_ENV_VAR",
    "LogHistogram",
    "MetricsRegistry",
    "NullTelemetry",
    "ProgressReporter",
    "Telemetry",
    "TelemetryAggregate",
    "TraceContext",
    "active",
    "aggregate_files",
    "aggregate_records",
    "collect_trace",
    "configure",
    "install",
    "metrics_text",
    "parse_prometheus",
    "read_records",
    "render_counters",
    "render_phase_table",
    "render_prometheus",
    "render_trace_tree",
    "shutdown",
    "trace_span",
]
