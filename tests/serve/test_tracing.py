"""Tracing and /metrics across the serving tier.

The acceptance criteria for the observability layer: one traced query
produces a connected span tree spanning client, HTTP handler,
singleflight, batch compute, and workers; ``GET /metrics`` serves a
sane Prometheus exposition; and none of it moves a verdict bit.
"""

import json
import threading

import pytest

from repro import obs
from repro.obs import tracing
from repro.obs.metrics import parse_prometheus
from repro.obs.telemetry import Telemetry
from repro.serve import ReproServer, ServeConfig, VerdictService
from repro.serve.client import ServeClient, build_query_body


@pytest.fixture(autouse=True)
def _restore_active():
    previous = obs.active()
    yield
    obs.install(previous)


def make_server(tmp_path, **overrides):
    overrides.setdefault("queue_cap", 8)
    service = VerdictService(
        ServeConfig(cache_dir=str(tmp_path / "cache"), **overrides)
    )
    return ReproServer(service)


def read_spans(path):
    with open(path, "r", encoding="utf-8") as handle:
        return [
            json.loads(line)
            for line in handle
            if line.strip() and '"span"' in line
        ]


class TestTraceOverHttp:
    def test_cold_query_builds_a_connected_span_tree(
        self, tmp_path, disagree
    ):
        path = tmp_path / "t.jsonl"
        obs.install(Telemetry(path, run={"command": "test"}))
        with make_server(tmp_path) as server:
            with ServeClient(server.url) as client:
                body = build_query_body(disagree, ["R1O", "REA"], queue_bound=2)
                response = client.query_raw(body)
        obs.active().close()
        assert response.trace_id and len(response.trace_id) == 32
        spans = [
            r for r in read_spans(path) if r.get("type") == "span"
        ]
        mine = tracing.collect_trace(spans, response.trace_id)
        by_name = {}
        for record in mine:
            by_name.setdefault(record["name"], []).append(record)
        assert set(by_name) >= {
            "client.query",
            "serve.request",
            "serve.lookup",
            "serve.wait",
            "serve.compute",
            "worker.run",
        }
        client_span = by_name["client.query"][0]
        request_span = by_name["serve.request"][0]
        compute_span = by_name["serve.compute"][0]
        assert client_span["parent"] is None
        assert request_span["parent"] == client_span["span"]
        assert by_name["serve.lookup"][0]["parent"] == request_span["span"]
        assert compute_span["parent"] == request_span["span"]
        assert compute_span["batch_size"] == 2
        assert len(by_name["worker.run"]) == 2
        for worker in by_name["worker.run"]:
            assert worker["parent"] == compute_span["span"]
        # The tree renders with one root and no orphans.
        text = tracing.render_trace_tree(mine)
        assert text.count("client.query") == 1
        assert "└─ client.query" in text

    def test_warm_query_traces_the_hot_replay(self, tmp_path, disagree):
        path = tmp_path / "t.jsonl"
        obs.install(Telemetry(path, run={"command": "test"}))
        with make_server(tmp_path) as server:
            with ServeClient(server.url) as client:
                body = build_query_body(disagree, ["R1O"], queue_bound=2)
                cold = client.query_raw(body)
                warm = client.query_raw(body)
        obs.active().close()
        assert warm.hot and warm.trace_id != cold.trace_id
        warm_spans = tracing.collect_trace(read_spans(path), warm.trace_id)
        request = next(
            r for r in warm_spans if r["name"] == "serve.request"
        )
        assert request["hot"] is True

    def test_untraced_query_still_answers(self, tmp_path, disagree):
        with make_server(tmp_path) as server:
            with ServeClient(server.url) as client:
                body = build_query_body(disagree, ["R1O"], queue_bound=2)
                response = client.query_raw(body, trace=False)
        assert response.trace_id is None
        assert "R1O" in response.data["results"]

    def test_malformed_traceparent_header_is_ignored(
        self, tmp_path, disagree
    ):
        with make_server(tmp_path) as server:
            with ServeClient(server.url) as client:
                body = build_query_body(disagree, ["R1O"], queue_bound=2)
                data, headers = client._request(
                    "POST",
                    "/v1/query",
                    body,
                    extra_headers={"traceparent": "zz-garbage"},
                )
        assert "R1O" in data["results"]
        assert "X-Repro-Trace" not in headers


class TestDifferentialSafety:
    def test_verdicts_bit_identical_traced_and_untraced(
        self, tmp_path, disagree
    ):
        """The differential acceptance criterion with tracing armed:
        the response body (canonical hash, verdicts, witnesses) is
        byte-identical whether or not the request carried a trace and
        whether or not telemetry was recording."""
        body = build_query_body(disagree, ["R1O", "REA"], queue_bound=2)

        def serve_once(directory, traced):
            directory.mkdir()
            if traced:
                obs.install(
                    Telemetry(directory / "t.jsonl", run={"command": "t"})
                )
            else:
                obs.install(obs.telemetry.NULL)
            with make_server(directory) as server:
                with ServeClient(server.url) as client:
                    response = client.query_raw(body, trace=traced)
            if traced:
                obs.active().close()
            return response

        plain = serve_once(tmp_path / "plain", traced=False)
        traced = serve_once(tmp_path / "traced", traced=True)
        assert json.dumps(plain.data, sort_keys=True) == json.dumps(
            traced.data, sort_keys=True
        )


class TestSingleflightAttribution:
    def test_joiner_records_the_leader_it_waited_on(
        self, tmp_path, disagree
    ):
        path = tmp_path / "t.jsonl"
        obs.install(Telemetry(path, run={"command": "test"}))
        service = VerdictService(
            ServeConfig(
                cache_dir=str(tmp_path / "cache"),
                queue_cap=8,
                response_cache_entries=0,
            )
        )
        body = build_query_body(disagree, ["R1O"], queue_bound=2)
        barrier = threading.Barrier(8)

        def fire():
            barrier.wait()
            service.handle_query(body)

        threads = [threading.Thread(target=fire) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        service.close()
        obs.active().close()
        spans = read_spans(path)
        requests = {
            r["span"]: r for r in spans if r.get("name") == "serve.request"
        }
        compute = [r for r in spans if r.get("name") == "serve.compute"]
        assert len(compute) == 1  # singleflight: one batch computed
        joins = [
            r
            for r in spans
            if r.get("name") == "serve.wait" and r.get("waited_on")
        ]
        if joins:  # racy by design; joiners may be absent on a slow box
            for record in joins:
                for leader in record["waited_on"].split(","):
                    assert leader in requests
                    assert leader != record["parent"]  # another request


class TestMetricsEndpoint:
    def test_metrics_scrape_is_sane(self, tmp_path, disagree):
        obs.install(Telemetry(None, run={"command": "test"}))
        with make_server(tmp_path) as server:
            with ServeClient(server.url) as client:
                body = build_query_body(disagree, ["R1O"], queue_bound=2)
                client.query_raw(body)
                client.query_raw(body)
                text = client.metrics_text()
        assert text.startswith("# TYPE")
        samples = parse_prometheus(text)
        assert samples[("repro_serve_requests_total", ())] == 2
        assert samples[("repro_serve_hot_hits_total", ())] == 1
        assert samples[("repro_serve_request_seconds_count", ())] == 2
        p50 = samples[
            ("repro_serve_request_seconds_window", (("quantile", "0.5"),))
        ]
        p99 = samples[
            ("repro_serve_request_seconds_window", (("quantile", "0.99"),))
        ]
        assert 0 < p50 <= p99
        assert ("repro_serve_queue_depth", ()) in samples
        assert ("repro_serve_queue_cap", ()) in samples

    def test_metrics_live_without_a_jsonl_sink(self, tmp_path, disagree):
        """The daemon's memory-only telemetry still feeds /metrics."""
        obs.install(Telemetry(None))
        with make_server(tmp_path) as server:
            with ServeClient(server.url) as client:
                body = build_query_body(disagree, ["R1O"], queue_bound=2)
                client.query_raw(body)
                samples = parse_prometheus(client.metrics_text())
        assert samples[("repro_serve_requests_total", ())] == 1

    def test_service_metrics_text_without_telemetry(self, tmp_path):
        """A NULL-telemetry service still renders counters and gauges."""
        service = VerdictService(
            ServeConfig(cache_dir=str(tmp_path / "cache"), queue_cap=8),
            start_workers=False,
        )
        try:
            samples = parse_prometheus(service.metrics_text())
        finally:
            service.close()
        assert samples[("repro_serve_requests_total", ())] == 0
        assert samples[("repro_serve_queue_cap", ())] == 8
