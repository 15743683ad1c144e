"""The shared HTTP transport (:mod:`repro.serve.http`) under both daemons:
the route table's error paths, prompt answers to bad lengths, and drain
with an idle keep-alive peer attached."""

import http.client
import json
import sys
import threading
import time

import pytest

from repro.campaign import api
from repro.campaign.spec import CampaignSpec
from repro.campaign.worker import CoordinatorClient
from repro.serve import ReproServer, ServeConfig, VerdictService
from repro.serve.http import HttpServer

SPEC = dict(
    name="http-test",
    count=2,
    models=("R1O",),
    mode="explore",
    shard_size=1,
    n_nodes=4,
    queue_bound=2,
    step_bound=20_000,
    cache=False,
)


def _serve(tmp_path):
    return ReproServer(VerdictService(ServeConfig(cache_dir=str(tmp_path / "cache"))))


def _coordinator(tmp_path):
    directory = tmp_path / "campaign"
    api.create(CampaignSpec(**SPEC), directory)
    return api.serve(directory, port=0)


#: Each daemon with a POST route of its own to aim the body checks at.
DAEMONS = {
    "serve": (_serve, "/v1/query"),
    "coordinator": (_coordinator, "/v2/campaign/claim"),
}


@pytest.fixture(params=sorted(DAEMONS))
def daemon(request, tmp_path):
    factory, post_path = DAEMONS[request.param]
    with factory(tmp_path) as server:
        yield server, post_path


def _exchange(server, method, path, headers=(), body=b""):
    """One raw request (headers exactly as given), answered within 5 s."""
    conn = http.client.HTTPConnection(server.host, server.port, timeout=5)
    try:
        conn.putrequest(method, path)
        for name, value in headers:
            conn.putheader(name, value)
        conn.endheaders(body or None)
        response = conn.getresponse()
        return response.status, json.loads(response.read())
    finally:
        conn.close()


def _post(server, path, body: bytes):
    return _exchange(
        server, "POST", path, [("Content-Length", str(len(body)))], body
    )


class TestRouteTable:
    @pytest.mark.parametrize(
        "method, path, headers, status",
        [
            ("GET", "/nope", (), 404),
            ("POST", "/nope", (("Content-Length", "0"),), 404),
            ("POST", None, (), 411),
            ("POST", None, (("Content-Length", "ten"),), 411),
            ("POST", None, (("Content-Length", "-1"),), 400),
            ("POST", None, (("Content-Length", str(64 * 1024 * 1024 + 1)),), 413),
        ],
    )
    def test_error_paths(self, daemon, method, path, headers, status):
        server, post_path = daemon
        got, body = _exchange(server, method, path or post_path, headers)
        assert got == status
        assert body["status"] == status
        assert isinstance(body["error"], str) and body["error"]

    @pytest.mark.parametrize("raw", [b"{nope", b"\xff\xfe", b"[]", b'"text"'])
    def test_non_json_or_non_object_body_is_400(self, daemon, raw):
        server, post_path = daemon
        status, body = _post(server, post_path, raw)
        assert (status, body["status"]) == (400, 400)
        assert body["error"]

    def test_versionless_campaign_body_is_400_with_code(self, tmp_path):
        with _coordinator(tmp_path) as coordinator:
            status, body = _post(
                coordinator, "/v2/campaign/claim", b'{"worker": "w"}'
            )
        assert (status, body["status"]) == (400, 400)
        assert body["code"]

    def test_campaign_error_is_409(self, tmp_path):
        with _coordinator(tmp_path) as coordinator:
            claim = json.dumps({"v": 2, "worker": "w"}).encode()
            lease = _post(coordinator, "/v2/campaign/claim", claim)[1]
            short = json.dumps(
                {"v": 2, "shard": lease["shard"], "token": lease["token"], "records": []}
            ).encode()
            status, body = _post(coordinator, "/v2/campaign/complete", short)
        assert (status, body["status"]) == (409, 409)
        assert "records" in body["error"]

    def test_client_stamps_deadline_on_coordinator_calls(self):
        echo = {
            ("GET", "/v2/campaign"): lambda request: {
                "v": 2,
                "deadline": request.headers.get("X-Repro-Deadline"),
            }
        }
        with HttpServer("127.0.0.1", 0, echo) as server:
            client = CoordinatorClient(server.url, timeout=5.0)
            try:
                deadline = float(client.describe()["deadline"])
            finally:
                client.close()
        assert 0.0 < deadline <= 5.0


class TestDrain:
    @pytest.mark.parametrize("name", sorted(DAEMONS))
    def test_close_returns_with_idle_keepalive_peer(self, tmp_path, name):
        server = DAEMONS[name][0](tmp_path)
        server.start_background()
        idle = http.client.HTTPConnection(server.host, server.port, timeout=10)
        closer = threading.Thread(target=server.close, daemon=True)
        try:
            idle.request("GET", "/healthz")
            assert idle.getresponse().read()
            closer.start()
            closer.join(timeout=5)
            assert not closer.is_alive(), "close() waited on an idle peer"
        finally:
            idle.close()
            if closer.is_alive():
                closer.join(timeout=10)

    def test_close_under_keepalive_load_finishes_admitted_requests(self):
        """Peers that keep sending cannot hold drain open, and every
        request admitted before it completes with a whole answer."""
        lock = threading.Lock()
        stop = threading.Event()
        entered, finished, answers = [], [], []

        def slow(request):
            with lock:
                entered.append(1)
            time.sleep(0.05)
            with lock:
                finished.append(1)
            return {"ok": True}

        def hammer():
            conn = http.client.HTTPConnection(server.host, server.port, timeout=10)
            try:
                while not stop.is_set():
                    conn.request("GET", "/slow")
                    answers.append(json.loads(conn.getresponse().read()))
            except (http.client.HTTPException, OSError):
                pass
            finally:
                conn.close()

        server = HttpServer("127.0.0.1", 0, {("GET", "/slow"): slow})
        server.start_background()
        # Enough overlap that some request is always in flight.
        clients = [threading.Thread(target=hammer, daemon=True) for _ in range(16)]
        closer = threading.Thread(target=server.close, daemon=True)
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for client in clients:
                client.start()
            time.sleep(0.3)
            closer.start()
            closer.join(timeout=10)
            assert not closer.is_alive(), "drain never saw zero in flight"
            with lock:
                assert len(finished) == len(entered)
            for client in clients:
                client.join(timeout=10)
                assert not client.is_alive()
        finally:
            sys.setswitchinterval(previous)
            stop.set()
            if closer.is_alive():
                closer.join(timeout=10)
        assert answers and all(answer == {"ok": True} for answer in answers)
