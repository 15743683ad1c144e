"""Distributed request tracing: trace/span IDs, propagation, span trees.

One ``repro query`` against a live daemon crosses at least two OS
processes (client → HTTP handler thread → singleflight → batch worker
thread → fan-out worker process).  Flat counters cannot say *which*
leader a joiner waited on or *which* worker ran a batch; this module
adds the causal layer:

* **IDs** — W3C-traceparent-style: a 16-byte ``trace_id`` names the
  end-to-end request, an 8-byte ``span_id`` names one timed operation
  inside it.  :meth:`TraceContext.to_traceparent` /
  :meth:`TraceContext.from_traceparent` round-trip the standard
  ``00-<trace>-<span>-01`` header form, so the IDs are also legible to
  off-the-shelf tooling.
* **Propagation** — in-process via a thread-local "current context"
  (:func:`current` / :func:`use`); across HTTP via the ``traceparent``
  header (:mod:`repro.serve`); across OS processes via the task payload
  (:class:`~repro.engine.parallel.ExplorationTask.traceparent`) and the
  :data:`TRACEPARENT_ENV_VAR` spawn environment.
* **Spans** — :func:`trace_span` is the package's one timed-region
  primitive.  It mints a child span of the current (or explicit)
  parent, feeds its duration into the telemetry totals and latency
  histograms, and emits one schema-v2 JSONL record::

      {"type": "span", "trace": ..., "span": ..., "parent": ...,
       "name": ..., "pid": ..., "start_ts": ..., "dur_s": ..., ...}

  With telemetry disabled the span is the shared no-op — hot paths
  pay one attribute test.
* **Reconstruction** — :func:`collect_trace` / :func:`render_trace_tree`
  turn any number of telemetry JSONL streams (client + server + worker
  appenders interleave freely) back into the request's span tree:
  ``repro trace show <trace-id> --telemetry FILE...``.

Tracing is observation-only: no verdict, witness, or cache key depends
on whether a context is in scope (the telemetry differential suite pins
this with tracing armed).
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

from . import telemetry as _telemetry_module

__all__ = [
    "TRACEPARENT_ENV_VAR",
    "TraceContext",
    "collect_trace",
    "current",
    "from_environment",
    "new_span_id",
    "new_trace_id",
    "render_trace_tree",
    "trace_span",
    "use",
]

#: Environment variable carrying the traceparent across process spawns
#: (fan-out workers adopt it when their task payload does not carry one).
TRACEPARENT_ENV_VAR = "REPRO_TRACEPARENT"

_FLAGS = "01"  # sampled; repro traces everything it is asked to trace
_VERSION = "00"


def new_trace_id() -> str:
    """A fresh 32-hex-digit (16-byte) trace ID."""
    return os.urandom(16).hex()


def new_span_id() -> str:
    """A fresh 16-hex-digit (8-byte) span ID."""
    return os.urandom(8).hex()


def _is_hex(value: str, length: int) -> bool:
    if len(value) != length:
        return False
    try:
        int(value, 16)
    except ValueError:
        return False
    return True


@dataclass(frozen=True)
class TraceContext:
    """One (trace, span) coordinate — the parent link a child span uses."""

    trace_id: str
    span_id: str

    @classmethod
    def root(cls) -> "TraceContext":
        return cls(trace_id=new_trace_id(), span_id=new_span_id())

    def child(self) -> "TraceContext":
        """A fresh span coordinate inside the same trace."""
        return TraceContext(trace_id=self.trace_id, span_id=new_span_id())

    def to_traceparent(self) -> str:
        """The W3C ``traceparent`` header value for this context."""
        return f"{_VERSION}-{self.trace_id}-{self.span_id}-{_FLAGS}"

    @classmethod
    def from_traceparent(cls, header) -> "TraceContext | None":
        """Parse a ``traceparent`` header; ``None`` on anything malformed.

        Malformed headers are dropped, not raised: a bad peer must cost
        a trace, never a request.
        """
        if not header or not isinstance(header, str):
            return None
        parts = header.strip().split("-")
        if len(parts) != 4:
            return None
        version, trace_id, span_id, _flags = parts
        if not _is_hex(version, 2) or version == "ff":
            return None
        if not _is_hex(trace_id, 32) or trace_id == "0" * 32:
            return None
        if not _is_hex(span_id, 16) or span_id == "0" * 16:
            return None
        return cls(trace_id=trace_id.lower(), span_id=span_id.lower())


# ----------------------------------------------------------------------
# The thread-local current context.
# ----------------------------------------------------------------------
_local = threading.local()


def current() -> "TraceContext | None":
    """The calling thread's current trace context, if any."""
    return getattr(_local, "context", None)


@contextmanager
def use(context: "TraceContext | None"):
    """Make ``context`` current for the calling thread (``None`` = no-op)."""
    if context is None:
        yield None
        return
    previous = current()
    _local.context = context
    try:
        yield context
    finally:
        _local.context = previous


def from_environment() -> "TraceContext | None":
    """The spawn-inherited context (:data:`TRACEPARENT_ENV_VAR`), if set."""
    return TraceContext.from_traceparent(os.environ.get(TRACEPARENT_ENV_VAR))


# ----------------------------------------------------------------------
# Span emission.
# ----------------------------------------------------------------------
class _NullSpan:
    """The shared no-op span :func:`trace_span` returns while telemetry
    is off: nothing could record it, so it costs one attribute test."""

    __slots__ = ()

    context = None
    trace_id = None
    span_id = None

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, traceback):
        return False

    def note(self, **fields) -> None:
        pass


_NULL_SPAN = _NullSpan()

_UNSET = object()


class TraceSpan:
    """One live timed region: its context plus fields noted before close.

    Entering resolves the parent (the explicit one, else the thread's
    current context), mints the span's own coordinate unless it was
    pinned, and makes it the current context for the body.  Exiting
    restores the previous context, feeds the duration into
    :meth:`Telemetry.timing` under the span's name (the summary totals
    and the latency histograms), and writes one ``span`` record.
    """

    __slots__ = (
        "_telemetry", "name", "context", "fields", "_parent",
        "_previous", "_start_wall", "_started",
    )

    def __init__(self, telemetry, name: str, parent, context, fields: dict) -> None:
        self._telemetry = telemetry
        self.name = name
        self._parent = parent
        self.context = context
        self.fields = fields

    @property
    def trace_id(self) -> str:
        return self.context.trace_id

    @property
    def span_id(self) -> str:
        return self.context.span_id

    def note(self, **fields) -> None:
        """Attach fields to the span record (e.g. outcome, hit tier)."""
        self.fields.update(fields)

    def __enter__(self) -> "TraceSpan":
        self._previous = current()
        parent = self._previous if self._parent is _UNSET else self._parent
        self._parent = parent
        if self.context is None:
            self.context = TraceContext.root() if parent is None else parent.child()
        _local.context = self.context
        self._start_wall = time.time()
        self._started = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, traceback) -> bool:
        elapsed = time.perf_counter() - self._started
        _local.context = self._previous
        if exc_type is not None:
            self.fields.setdefault("error", exc_type.__name__)
        telemetry = self._telemetry
        telemetry.timing(self.name, elapsed)
        telemetry.event(
            "span",
            trace=self.context.trace_id,
            span=self.context.span_id,
            parent=None if self._parent is None else self._parent.span_id,
            name=self.name,
            pid=os.getpid(),
            start_ts=round(self._start_wall, 6),
            dur_s=round(elapsed, 6),
            **self.fields,
        )
        return False


def trace_span(name: str, *, parent=_UNSET, context=None, **fields):
    """The one timed-region primitive: ``with trace_span(name) as span:``.

    With telemetry live the span's duration feeds
    :meth:`Telemetry.timing` under ``name`` and one ``span`` record is
    written at exit.  ``parent`` defaults to the thread's current
    context; pass an explicit :class:`TraceContext` (or ``None`` to
    force a fresh root).  ``context`` instead pins the span's *own*
    coordinate — the client uses this to put its pre-minted root
    (already sent in the ``traceparent`` header) on the span record.
    The span is the current context for its body, so nested spans
    chain parent links.  ``fields`` start the record's extra fields.

    With telemetry off the shared no-op span is returned, whatever
    trace context is in scope: nothing could record it.  An exception
    propagating out of the body is recorded as an ``error`` field and
    re-raised — a failed request still traces.
    """
    # The module global, not ``active()``: this is the whole null path.
    telemetry = _telemetry_module._active
    if not telemetry.enabled:
        return _NULL_SPAN
    return TraceSpan(telemetry, name, parent, context, fields)


# ----------------------------------------------------------------------
# Reconstruction: JSONL streams → span tree.
# ----------------------------------------------------------------------
def collect_trace(records, trace_id: str) -> list:
    """Span records matching ``trace_id`` (unique-prefix matching).

    Raises :class:`ValueError` when the prefix is ambiguous across
    traces in ``records``; an exact 32-digit ID never is.
    """
    spans = [r for r in records if r.get("type") == "span" and r.get("trace")]
    matched = sorted({r["trace"] for r in spans if r["trace"].startswith(trace_id)})
    if len(matched) > 1:
        raise ValueError(
            f"trace id prefix {trace_id!r} is ambiguous: "
            + ", ".join(t[:12] + "…" for t in matched)
        )
    if not matched:
        return []
    full = matched[0]
    return [r for r in spans if r["trace"] == full]


_TREE_FIELD_SKIP = frozenset(
    {"ts", "type", "trace", "span", "parent", "name", "pid", "start_ts", "dur_s"}
)


def _render_node(record: dict, indent: str, last: bool, lines: list, children: dict):
    connector = "└─ " if last else "├─ "
    extras = " ".join(
        f"{key}={record[key]}"
        for key in sorted(record)
        if key not in _TREE_FIELD_SKIP
    )
    duration = record.get("dur_s", 0.0) * 1000.0
    host = record.get("host")
    where = f"pid {record.get('pid', '?')}"
    if host:
        where = f"{host}/{where}"
    line = f"{indent}{connector}{record.get('name', '?')}  [{where}]  {duration:.1f}ms"
    if extras:
        line += f"  {extras}"
    lines.append(line)
    child_indent = indent + ("   " if last else "│  ")
    kids = children.get(record.get("span"), [])
    for index, child in enumerate(kids):
        _render_node(child, child_indent, index == len(kids) - 1, lines, children)


def render_trace_tree(spans: list) -> str:
    """Render one trace's span records as an indented tree.

    Spans whose parent is absent from the set (a stream that was not
    collected, or the synthetic client root) render as roots — a
    partial trace degrades to a forest, never an error.  Duplicate span
    records (the same line read from two files) collapse.
    """
    if not spans:
        return "(no spans)"
    by_id: dict = {}
    for record in spans:
        by_id.setdefault(record.get("span"), record)
    spans = sorted(by_id.values(), key=lambda r: (r.get("start_ts", 0.0), r.get("span") or ""))
    children: dict = {}
    roots = []
    for record in spans:
        parent = record.get("parent")
        if parent and parent in by_id:
            children.setdefault(parent, []).append(record)
        else:
            roots.append(record)
    trace = spans[0].get("trace", "?")
    processes = {(r.get("host"), r.get("pid")) for r in spans}
    start = min(r.get("start_ts", 0.0) for r in spans)
    end = max(r.get("start_ts", 0.0) + r.get("dur_s", 0.0) for r in spans)
    lines = [
        f"trace {trace} — {len(spans)} span(s), "
        f"{len(processes)} process(es), {max(0.0, end - start) * 1000.0:.1f}ms"
    ]
    for index, root in enumerate(roots):
        _render_node(root, "", index == len(roots) - 1, lines, children)
    return "\n".join(lines)


def list_traces(records) -> dict:
    """``{trace_id: span count}`` over ``records`` (for discovery)."""
    traces: dict = {}
    for record in records:
        if record.get("type") == "span" and record.get("trace"):
            traces[record["trace"]] = traces.get(record["trace"], 0) + 1
    return traces


def dump_trace_json(spans: list) -> str:
    """The matched span records as a JSON array (CI artifacts)."""
    ordered = sorted(spans, key=lambda r: (r.get("start_ts", 0.0), r.get("span") or ""))
    return json.dumps(ordered, indent=2, sort_keys=True)
