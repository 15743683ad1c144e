"""The package's one HTTP transport: a route-table server and a JSON client.

``repro serve`` (:class:`~repro.serve.server.ReproServer`) and the
campaign coordinator (:class:`~repro.campaign.coordinator.CampaignCoordinator`)
are :class:`HttpServer` subclasses that supply a route table
``{(method, path): fn}``, a body limit and shutdown hooks; their clients
(:class:`~repro.serve.client.ServeClient`,
:class:`~repro.campaign.worker.CoordinatorClient`) are
:class:`HttpClient` subclasses that supply an error type and a retry
shape.  Keep-alive, body checks, the error-to-status mapping, drain,
retries, breakers, deadlines and fault points live here once;
``docs/serving.md`` describes them.
"""

from __future__ import annotations

import http.client
import json
import signal
import socket
import threading
import time
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import NamedTuple

from ..faults import fault_point
from .protocol import DEADLINE_HEADER, ProtocolError, check_version
from .retry import (
    CircuitBreaker,
    RetryPolicy,
    TransientError,
    call_with_retry,
    parse_retry_after,
)

__all__ = ["WIRE_ERRORS", "HttpClient", "HttpServer", "Reply"]

JSON_TYPE = "application/json"
METRICS_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: What a dropped, reset or timed-out connection raises; an exhausted
#: retry budget re-raises one of these.
WIRE_ERRORS = (http.client.HTTPException, OSError)


class Reply(NamedTuple):
    """A route's answer when a bare ``dict`` is not enough."""

    body: bytes
    headers: tuple = ()
    content_type: str = JSON_TYPE


def _encode(payload: dict) -> bytes:
    return json.dumps(payload, separators=(",", ":"), sort_keys=True).encode("utf-8")


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    sys_version = ""
    disable_nagle_algorithm = True
    #: The request body (empty for GET), read before the route runs.
    body = b""

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass

    def version_string(self) -> str:
        return self.server.app.server_version

    def json(self, *, minimum: int = 1) -> dict:
        """The body as a versioned JSON object (raises for the 400 path)."""
        body = json.loads(self.body)
        if not isinstance(body, dict):
            raise ProtocolError("request body must be a JSON object")
        check_version(body, minimum=minimum)
        return body

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("POST")

    def _send(self, status: int, reply: Reply) -> None:
        self.send_response(status)
        self.send_header("Content-Type", reply.content_type)
        self.send_header("Content-Length", str(len(reply.body)))
        for name, value in reply.headers:
            self.send_header(name, value)
        if self.close_connection or self.server.draining:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(reply.body)

    def _error(self, status: int, message: str, headers=(), code=None) -> None:
        payload = {"error": message, "status": status}
        if code is not None:
            payload["code"] = code
        self._send(status, Reply(_encode(payload), headers))

    def _read_body(self, limit: int) -> bool:
        try:
            length = int(self.headers.get("Content-Length", ""))
        except ValueError:
            length = None
        if length is not None and 0 <= length <= limit:
            self.body = self.rfile.read(length)
            return True
        # An unread body would be parsed as the next request.
        self.close_connection = True
        if length is None:
            self._error(411, "Content-Length required")
        elif length < 0:
            self._error(400, f"negative Content-Length: {length}")
        else:
            self._error(413, f"request body over {limit} bytes")
        return False

    def _dispatch(self, method: str) -> None:
        server = self.server
        self.body = b""  # not the previous request's on this connection
        route = server.app.routes.get((method, self.path))
        if route is None:
            if method == "POST":
                self.close_connection = True  # its body stays unread
            self._error(404, f"no such endpoint: {self.path}")
            return
        if not server.admit():  # drain has hung up on this connection
            self.close_connection = True
            return
        try:
            if method == "POST" and not self._read_body(server.app.max_body):
                return
            self._answer(route)
        finally:
            server.release()

    def _answer(self, route) -> None:
        try:
            reply = route(self)
        except ProtocolError as exc:
            self._error(400, str(exc), code=exc.code)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            self._error(400, f"request body is not valid JSON: {exc}")
        except Exception as exc:  # rejections, fault injection, bugs: still answer
            status = getattr(exc, "status", None)
            if not isinstance(status, int):
                self._error(500, f"internal error: {exc!r}")
                return
            retry_after = getattr(exc, "retry_after", None)
            headers = () if retry_after is None else [("Retry-After", f"{retry_after:g}")]
            self._error(status, str(exc), headers)
        else:
            if isinstance(reply, dict):
                reply = Reply(_encode(reply))
            elif isinstance(reply, str):
                reply = Reply(reply.encode("utf-8"), content_type=METRICS_TYPE)
            self._send(200, reply)


class _Listener(ThreadingHTTPServer):
    """A threading listener that drains by request, not by thread.

    Handler threads are daemons: a keep-alive peer idling between
    requests parks its thread in ``readline``, and joining it (what a
    non-daemon ``server_close`` does) would wait for the peer to hang up.
    Instead :meth:`drain` ends every connection after its next reply,
    waits for the admitted requests, then shuts down the connections
    still open so the idle threads see EOF and exit.
    """

    daemon_threads = True

    def __init__(self, address, app: "HttpServer") -> None:
        super().__init__(address, _Handler)
        self.app = app
        self.draining = False
        # A plain lock on the per-request path; the event is only set
        # once draining, when the last admitted request is released.
        self._lock = threading.Lock()
        self._idle = threading.Event()
        self._busy = 0
        self._closed = False
        self._connections: set = set()

    def process_request_thread(self, request, client_address) -> None:
        with self._lock:
            self._connections.add(request)
        try:
            super().process_request_thread(request, client_address)
        finally:
            with self._lock:
                self._connections.discard(request)

    def admit(self) -> bool:
        with self._lock:
            if self._closed:
                return False
            self._busy += 1
            return True

    def release(self) -> None:
        with self._lock:
            self._busy -= 1
            if self.draining and not self._busy:
                self._idle.set()

    def drain(self) -> None:
        # Each connection takes at most one more request once draining,
        # so the wait ends even while peers keep sending.
        while True:
            with self._lock:
                self.draining = True
                if not self._busy:
                    self._closed = True
                    for connection in self._connections:
                        try:
                            connection.shutdown(socket.SHUT_RDWR)
                        except OSError:
                            pass
                    return
                self._idle.clear()
            self._idle.wait()


class HttpServer:
    """A route table bound to a listener, with drain-on-close.

    A route ``fn(request)`` gets the handler (``.headers``, ``.body``,
    ``.json()``) and returns a ``dict`` (JSON 200), a ``str`` (the
    Prometheus ``/metrics`` page) or a :class:`Reply`.  Subclasses set
    :attr:`max_body` and may override :attr:`server_version`,
    :meth:`_on_drain` (runs as shutdown begins) and :meth:`_on_close`
    (runs once no request is in flight).
    """

    #: Cap on accepted request bodies, in bytes.
    max_body: int
    #: The ``Server`` response header.
    server_version = "repro"

    def __init__(self, host: str, port: int, routes: dict) -> None:
        self.routes = routes
        self.httpd = _Listener((host, port), self)
        self._thread: "threading.Thread | None" = None

    @property
    def host(self) -> str:
        return self.httpd.server_address[0]

    @property
    def port(self) -> int:
        return self.httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def _on_drain(self) -> None:
        pass

    def _on_close(self) -> None:
        pass

    def _finish(self) -> None:
        self.httpd.drain()
        self.httpd.server_close()
        self._on_close()

    # -- background mode (tests, benchmarks) ----------------------------
    def start_background(self) -> None:
        self._thread = threading.Thread(
            target=self.httpd.serve_forever, kwargs={"poll_interval": 0.05}
        )
        self._thread.start()

    def close(self) -> None:
        """Drain and shut down: stop accepting, finish admitted work."""
        self._on_drain()
        if self._thread is not None:
            self.httpd.shutdown()
            self._thread.join()
            self._thread = None
        self._finish()

    def __enter__(self):
        self.start_background()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- foreground mode (the CLI) --------------------------------------
    def stop(self) -> None:
        """Begin draining a :meth:`serve_forever` loop; safe from a signal
        handler or any thread (``shutdown()`` runs on a helper thread —
        on the loop's own thread it would deadlock)."""
        self._on_drain()
        threading.Thread(target=self.httpd.shutdown).start()

    def serve_forever(self, install_signals: bool = True) -> None:
        """Run until SIGTERM/SIGINT (or :meth:`stop`), then drain and return."""
        if install_signals:
            for signum in (signal.SIGTERM, signal.SIGINT):
                signal.signal(signum, lambda signum, frame: self.stop())
        try:
            self.httpd.serve_forever(poll_interval=0.05)
        finally:
            self._finish()


class HttpClient:
    """A persistent, retrying JSON connection to one :class:`HttpServer`.

    Subclasses set :attr:`default_policy`, :attr:`breaker_cooldown_s`
    and the fault sites, and implement :meth:`_error` (the exception a
    non-200 answer becomes).
    """

    default_policy: RetryPolicy
    breaker_threshold = 5
    breaker_cooldown_s: float
    #: The fault-injection site of a send to a path not in :attr:`fault_sites`.
    fault_site: str
    fault_sites: dict = {}

    def __init__(
        self,
        url: str,
        timeout: float = 60.0,
        *,
        retry_policy: "RetryPolicy | None" = None,
    ) -> None:
        parsed = urllib.parse.urlsplit(url)
        if parsed.scheme not in ("http", ""):
            raise ValueError(f"unsupported scheme in {url!r}")
        self._timeout = timeout
        self._conn = http.client.HTTPConnection(
            parsed.hostname or "127.0.0.1", parsed.port or 80, timeout=timeout
        )
        self._policy = retry_policy if retry_policy is not None else self.default_policy
        self._breakers: dict = {}

    def close(self) -> None:
        self._conn.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _error(self, status: int, message: str, retry_after=None) -> Exception:
        raise NotImplementedError

    def _retryable(self, status: int) -> bool:
        """Whether an answered ``status`` is worth another attempt."""
        return False

    def _send_once(self, method: str, path: str, body, headers: dict, deadline: float):
        """One wire attempt: ``(response, raw)``, or :class:`TransientError`
        for a wire failure or a retryable status."""
        headers = dict(headers)
        headers[DEADLINE_HEADER] = f"{max(0.0, deadline - time.monotonic()):.3f}"
        try:
            # Inside the wire-error net: an injected connreset must be
            # retried exactly like a real one.
            fault_point(self.fault_sites.get(path, self.fault_site), path)
            self._conn.request(method, path, body=body, headers=headers)
            response = self._conn.getresponse()
            raw = response.read()
        except WIRE_ERRORS as exc:
            # The keep-alive connection is in an unknown state after any
            # wire-level failure; drop it so the next attempt redials.
            self._conn.close()
            raise TransientError(str(exc), cause=exc) from exc
        if response.status != 200 and self._retryable(response.status):
            retry_after = parse_retry_after(response.headers.get("Retry-After"))
            raise TransientError(
                f"HTTP {response.status}",
                retry_after=retry_after,
                cause=self._error(
                    response.status, raw[:200].decode("utf-8", "replace"), retry_after
                ),
            )
        return response, raw

    def _call(self, method: str, path: str, body=None, headers=None):
        """``(response, raw)`` after retries, breaker and deadline."""
        deadline = time.monotonic() + self._timeout
        breaker = self._breakers.get(path)
        if breaker is None:
            breaker = self._breakers[path] = CircuitBreaker(
                self.breaker_threshold, self.breaker_cooldown_s
            )
        return call_with_retry(
            lambda: self._send_once(method, path, body, headers or {}, deadline),
            policy=self._policy,
            endpoint=path,
            breaker=breaker,
            deadline=deadline,
        )

    def _request(self, method: str, path: str, body=None, extra_headers=None):
        """``(decoded JSON, response headers)`` of a 200; else :meth:`_error`."""
        headers = {"Content-Type": JSON_TYPE} if body else {}
        headers.update(extra_headers or {})
        response, raw = self._call(method, path, body, headers)
        try:
            data = json.loads(raw)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise self._error(response.status, f"non-JSON response: {exc}") from exc
        if response.status != 200:
            raise self._error(
                response.status,
                data.get("error", raw.decode("utf-8", "replace")),
                parse_retry_after(response.headers.get("Retry-After")),
            )
        return data, response.headers
