"""Tracing: IDs, propagation, span emission, tree reconstruction."""

import json
import os

import pytest

from repro import obs
from repro.obs import tracing
from repro.obs.telemetry import Telemetry
from repro.obs.tracing import TraceContext


@pytest.fixture(autouse=True)
def _clean_slate(monkeypatch):
    """No inherited context, no armed telemetry, no env traceparent."""
    monkeypatch.delenv(tracing.TRACEPARENT_ENV_VAR, raising=False)
    previous = obs.active()
    yield
    obs.install(previous)


def read_jsonl(path):
    with open(path, "r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


class TestTraceparent:
    def test_round_trip(self):
        context = TraceContext.root()
        parsed = TraceContext.from_traceparent(context.to_traceparent())
        assert parsed == context

    def test_header_shape(self):
        header = TraceContext("ab" * 16, "cd" * 8).to_traceparent()
        assert header == f"00-{'ab' * 16}-{'cd' * 8}-01"

    @pytest.mark.parametrize(
        "header",
        [
            None,
            "",
            "garbage",
            "00-short-beef-01",
            "00-" + "g" * 32 + "-" + "1" * 16 + "-01",  # non-hex trace
            "ff-" + "a" * 32 + "-" + "1" * 16 + "-01",  # forbidden version
            "00-" + "0" * 32 + "-" + "1" * 16 + "-01",  # all-zero trace
            "00-" + "a" * 32 + "-" + "0" * 16 + "-01",  # all-zero span
            "00-" + "a" * 32 + "-" + "1" * 16,  # missing flags
        ],
    )
    def test_malformed_headers_return_none(self, header):
        assert TraceContext.from_traceparent(header) is None

    def test_ids_are_well_formed_and_distinct(self):
        assert len(tracing.new_trace_id()) == 32
        assert len(tracing.new_span_id()) == 16
        assert tracing.new_trace_id() != tracing.new_trace_id()
        child = TraceContext.root().child()
        assert child.trace_id != child.span_id


class TestPropagation:
    def test_use_scopes_the_current_context(self):
        assert tracing.current() is None
        context = TraceContext.root()
        with tracing.use(context):
            assert tracing.current() == context
            inner = context.child()
            with tracing.use(inner):
                assert tracing.current() == inner
            assert tracing.current() == context
        assert tracing.current() is None

    def test_use_none_is_a_no_op(self):
        with tracing.use(None) as scoped:
            assert scoped is None
            assert tracing.current() is None

    def test_from_environment(self, monkeypatch):
        context = TraceContext.root()
        monkeypatch.setenv(
            tracing.TRACEPARENT_ENV_VAR, context.to_traceparent()
        )
        assert tracing.from_environment() == context
        monkeypatch.setenv(tracing.TRACEPARENT_ENV_VAR, "junk")
        assert tracing.from_environment() is None


class TestTraceSpan:
    def test_null_span_when_untraced_and_unobserved(self):
        with tracing.trace_span("x") as span:
            assert span.context is None
            span.note(anything=1)  # no-op, no error

    def test_null_span_with_a_context_in_scope(self):
        """With telemetry off nothing can record a span, so a trace
        context in scope does not make it live."""
        context = TraceContext.root()
        with tracing.use(context):
            with tracing.trace_span("x") as span:
                assert span is tracing.trace_span("y")
                assert span.context is None
                assert tracing.current() == context

    def test_emits_schema_v2_span_record(self, tmp_path):
        path = tmp_path / "t.jsonl"
        obs.install(Telemetry(path))
        with tracing.trace_span("outer") as outer:
            with tracing.trace_span("inner") as inner:
                inner.note(hits=3)
        obs.active().close()
        spans = [r for r in read_jsonl(path) if r["type"] == "span"]
        by_name = {r["name"]: r for r in spans}
        assert set(by_name) == {"outer", "inner"}
        assert by_name["inner"]["trace"] == by_name["outer"]["trace"]
        assert by_name["inner"]["parent"] == by_name["outer"]["span"]
        assert by_name["outer"]["parent"] is None
        assert by_name["inner"]["hits"] == 3
        assert by_name["outer"]["pid"] == os.getpid()
        assert by_name["outer"]["dur_s"] >= 0.0
        assert outer.span_id == by_name["outer"]["span"]

    def test_timing_feeds_the_histogram_registry(self, tmp_path):
        tel = Telemetry(tmp_path / "t.jsonl")
        obs.install(tel)
        with tracing.trace_span("serve.request"):
            pass
        assert "serve.request" in tel.metrics.names()
        assert tel.metrics.histogram("serve.request").count == 1
        tel.close()

    def test_parent_pins_the_link_across_threads(self, tmp_path):
        path = tmp_path / "t.jsonl"
        obs.install(Telemetry(path))
        remote = TraceContext.root()
        with tracing.trace_span("worker.run", parent=remote):
            pass
        obs.active().close()
        span = [r for r in read_jsonl(path) if r["type"] == "span"][0]
        assert span["trace"] == remote.trace_id
        assert span["parent"] == remote.span_id

    def test_context_pins_the_spans_own_coordinate(self, tmp_path):
        path = tmp_path / "t.jsonl"
        obs.install(Telemetry(path))
        root = TraceContext.root()
        with tracing.trace_span("client.query", context=root) as span:
            assert span.context == root
            assert tracing.current() == root
        obs.active().close()
        record = [r for r in read_jsonl(path) if r["type"] == "span"][0]
        assert record["span"] == root.span_id
        assert record["parent"] is None

    def test_exception_is_recorded_and_reraised(self, tmp_path):
        path = tmp_path / "t.jsonl"
        obs.install(Telemetry(path))
        with pytest.raises(RuntimeError):
            with tracing.trace_span("serve.request"):
                raise RuntimeError("boom")
        obs.active().close()
        record = [r for r in read_jsonl(path) if r["type"] == "span"][0]
        assert record["error"] == "RuntimeError"


class TestReconstruction:
    def _records(self):
        trace = "a" * 32
        return [
            {"type": "run", "pid": 1},
            {
                "type": "span", "trace": trace, "span": "1" * 16,
                "parent": None, "name": "client.query", "pid": 1,
                "start_ts": 10.0, "dur_s": 0.5,
            },
            {
                "type": "span", "trace": trace, "span": "2" * 16,
                "parent": "1" * 16, "name": "serve.request", "pid": 2,
                "start_ts": 10.1, "dur_s": 0.3, "models": 2,
            },
            {
                "type": "span", "trace": "b" * 32, "span": "9" * 16,
                "parent": None, "name": "other", "pid": 3,
                "start_ts": 11.0, "dur_s": 0.1,
            },
        ]

    def test_collect_by_unique_prefix(self):
        spans = tracing.collect_trace(self._records(), "aaaa")
        assert [r["name"] for r in spans] == ["client.query", "serve.request"]
        assert tracing.collect_trace(self._records(), "c" * 8) == []

    def test_ambiguous_prefix_raises(self):
        records = self._records() + [
            {
                "type": "span", "trace": "a" * 31 + "f", "span": "8" * 16,
                "parent": None, "name": "x", "pid": 4,
                "start_ts": 12.0, "dur_s": 0.1,
            }
        ]
        with pytest.raises(ValueError, match="ambiguous"):
            tracing.collect_trace(records, "aaaa")

    def test_render_tree_nests_and_counts_processes(self):
        spans = tracing.collect_trace(self._records(), "aaaa")
        text = tracing.render_trace_tree(spans)
        assert "2 span(s), 2 process(es)" in text
        lines = text.splitlines()
        assert lines[1].startswith("└─ client.query")
        assert lines[2].startswith("   └─ serve.request")
        assert "models=2" in lines[2]

    def test_orphan_spans_render_as_forest(self):
        spans = [
            {
                "type": "span", "trace": "a" * 32, "span": "2" * 16,
                "parent": "f" * 16, "name": "orphan", "pid": 2,
                "start_ts": 1.0, "dur_s": 0.1,
            }
        ]
        text = tracing.render_trace_tree(spans)
        assert "orphan" in text  # missing parent → a root, not a crash

    def test_duplicate_records_collapse(self):
        spans = tracing.collect_trace(
            self._records() + self._records(), "aaaa"
        )
        text = tracing.render_trace_tree(spans)
        assert "2 span(s)" in text

    def test_list_traces_and_json_dump(self):
        traces = tracing.list_traces(self._records())
        assert traces == {"a" * 32: 2, "b" * 32: 1}
        dumped = json.loads(
            tracing.dump_trace_json(
                tracing.collect_trace(self._records(), "aaaa")
            )
        )
        assert [r["name"] for r in dumped] == ["client.query", "serve.request"]

