"""HTTP layer: endpoints, status mapping, differential byte-identity,
and graceful SIGTERM drain through the real CLI."""

import dataclasses
import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path
from urllib.parse import urlsplit

import pytest

from repro.analysis.experiments import matrix_certification
from repro.config import RunConfig
from repro.serve import ReproServer, ServeConfig, VerdictService
from repro.serve.client import (
    ServeClient,
    ServerError,
    ServerShedding,
    build_query_body,
)

from ..engine.verdict_rows import rows

REPO = Path(__file__).resolve().parents[2]


@pytest.fixture
def server(tmp_path):
    service = VerdictService(
        ServeConfig(cache_dir=str(tmp_path / "cache"), queue_cap=8)
    )
    with ReproServer(service) as srv:
        yield srv


class TestEndpoints:
    def test_healthz_statz_and_404(self, server):
        with ServeClient(server.url) as client:
            assert client.healthz() == {"status": "ok"}
            stats = client.statz()
            assert stats["queue_cap"] == 8
            assert stats["serve"]["requests"] == 0
            assert "cache" in stats
            with pytest.raises(ServerError) as excinfo:
                client._request("GET", "/nope")
            assert excinfo.value.status == 404

    def test_malformed_queries_get_400(self, server, disagree):
        with ServeClient(server.url) as client:
            for raw in (b"{nope", b"[]", b'{"v": 2, "instance": {"x": 1}}'):
                with pytest.raises(ServerError) as excinfo:
                    client.query_raw(raw)
                assert excinfo.value.status == 400

    def test_unversioned_query_gets_400_unsupported_version(self, server, disagree):
        """Version-less (v1) bodies are refused like any unknown version."""
        body = json.loads(build_query_body(disagree, ["R1O"]))
        del body["v"]
        url = urlsplit(server.url)
        conn = http.client.HTTPConnection(url.hostname, url.port, timeout=10)
        try:
            conn.request(
                "POST",
                "/v1/query",
                body=json.dumps(body),
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            answer = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert answer["code"] == "unsupported-version"

    def test_cold_then_hot_query(self, server, disagree):
        with ServeClient(server.url) as client:
            body = build_query_body(disagree, ["R1O", "REA"], queue_bound=2)
            cold = client.query_raw(body)
            warm = client.query_raw(body)
        assert (cold.hot, warm.hot) == (False, True)
        assert cold.data["results"] == warm.data["results"]
        results = warm.results(disagree)
        assert results["R1O"].oscillates and not results["REA"].oscillates

    def test_differential_byte_identity_with_direct_api(self, server, disagree):
        """The acceptance criterion: server answers == direct calls,
        verdicts and witnesses included."""
        with ServeClient(server.url) as client:
            response = client.query(disagree, queue_bound=2)
        served = response.results(disagree)
        direct = matrix_certification(
            config=RunConfig(queue_bound=2, cache=False, workers=1)
        )
        assert set(served) == set(direct)
        for name in direct:
            assert dataclasses.replace(
                served[name], cache_hit=False
            ) == dataclasses.replace(direct[name], cache_hit=False)

    def test_server_cache_entries_match_cli_written_ones(
        self, tmp_path, disagree
    ):
        """The serve path and the library path produce identical stored
        rows (same keys, same bytes) — CACHE_VERSION unchanged."""
        from repro.engine.cache import VerdictCache
        from repro.engine.explorer import can_oscillate
        from repro.models.taxonomy import model

        direct_dir = tmp_path / "direct"
        can_oscillate(
            disagree,
            model("R1O"),
            config=RunConfig(queue_bound=2, cache=VerdictCache(direct_dir)),
        )
        serve_dir = tmp_path / "served"
        service = VerdictService(
            ServeConfig(cache_dir=str(serve_dir), queue_cap=4)
        )
        with ReproServer(service) as srv:
            with ServeClient(srv.url) as client:
                client.query(disagree, ["R1O"], queue_bound=2)
        direct_rows = rows(direct_dir)
        assert len(direct_rows) == 1
        assert rows(serve_dir) == direct_rows


class TestAdmissionOverHTTP:
    def test_429_with_retry_after_under_tiny_queue_cap(
        self, tmp_path, disagree, fig6
    ):
        service = VerdictService(
            ServeConfig(
                cache_dir=str(tmp_path / "cache"),
                queue_cap=1,
                retry_after_s=3.0,
            ),
            start_workers=False,
        )
        with ReproServer(service) as srv:
            holder_done = []

            def hold():
                with ServeClient(srv.url) as client:
                    client.query(disagree, ["R1O"], queue_bound=2)
                holder_done.append(True)

            holder = threading.Thread(target=hold)
            holder.start()
            deadline = time.monotonic() + 5
            while not service.statz()["queue_depth"] and time.monotonic() < deadline:
                time.sleep(0.01)
            with ServeClient(srv.url) as client:
                with pytest.raises(ServerShedding) as excinfo:
                    client.query(fig6, ["R1O"], queue_bound=2)
            assert excinfo.value.status == 429
            assert excinfo.value.retry_after == 3.0
            service.start()
            holder.join(timeout=10)
            assert holder_done

    def test_draining_server_returns_503(self, server, disagree):
        server.service.drain()
        with ServeClient(server.url) as client:
            assert client.healthz() == {"status": "draining"}
            with pytest.raises(ServerShedding) as excinfo:
                client.query(disagree, ["R1O"])
        assert excinfo.value.status == 503


@pytest.mark.slow
class TestCliDrain:
    def _env(self):
        env = dict(os.environ)
        src = str(REPO / "src")
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = f"{src}{os.pathsep}{existing}" if existing else src
        return env

    def test_sigterm_drains_and_exits_zero(self, tmp_path):
        env = self._env()
        proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--port", "0",
                "--cache-dir", str(tmp_path / "cache"),
            ],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            banner = proc.stdout.readline()
            url = re.search(r"(http://\S+)", banner).group(1)
            proc.stdout.readline()  # config line
            out = subprocess.run(
                [
                    sys.executable, "-m", "repro", "query",
                    "--url", url,
                    "--models", "R1O",
                    "--queue-bound", "2",
                    "--json",
                ],
                env=env,
                capture_output=True,
                text=True,
                timeout=60,
            )
            assert out.returncode == 0, out.stderr
            assert "R1O" in json.loads(out.stdout)["results"]
            proc.send_signal(signal.SIGTERM)
            remaining, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0
        assert "repro serve: drained" in remaining
