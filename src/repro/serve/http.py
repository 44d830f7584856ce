"""The telemetry HTTP server: routing, error bodies, lifecycle.

Endpoint routing lives in :class:`_TelemetryHandler`. ``/healthz``
answers before any routing work, so liveness stays cheap.

Every 4xx/5xx on the API carries a standardized JSON error body
``{"error": {"code": ..., "message": ...}}``; an exception escaping a
handler becomes a 500 with that same shape (and bumps
``serve.http_errors_total``) instead of a torn connection.

:class:`TelemetryServer` owns the socket and the daemon serving thread:
``start()`` twice raises :class:`~repro.errors.ServeError`, ``stop()``
is idempotent, and a stopped server cannot be restarted (the socket is
gone — build a new one).
"""

from __future__ import annotations

import json
import logging
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable
from urllib.parse import parse_qs, urlparse

from repro import obs
from repro.errors import ServeError
from repro.obs.alerts import AlertManager
from repro.obs.metrics import MetricsRegistry
from repro.obs.prometheus import render_prometheus
from repro.obs.timeseries import TimeSeriesStore

logger = logging.getLogger(__name__)

#: Content type mandated by the Prometheus text exposition format.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_JSON = "application/json; charset=utf-8"
_TEXT = "text/plain; charset=utf-8"


def error_body(code: str, message: str) -> str:
    """The standardized JSON error body for every API 4xx/5xx.

    >>> error_body("not_found", "unknown path /nope")
    '{"error": {"code": "not_found", "message": "unknown path /nope"}}\\n'
    """
    return json.dumps({"error": {"code": code, "message": message}}) + "\n"


class _TelemetryHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the telemetry callbacks for handlers."""

    daemon_threads = True

    registry: MetricsRegistry
    status_fn: Callable[[], dict]
    ready_fn: Callable[[], bool]
    store: TimeSeriesStore | None
    alert_manager: AlertManager | None


class _TelemetryHandler(BaseHTTPRequestHandler):
    """Routes the telemetry endpoints; logs through ``repro.serve``.

    Every request bumps ``serve.http_requests_total`` and times itself
    into ``serve.scrape_seconds``; 5xx responses additionally bump
    ``serve.http_errors_total`` — the pair of counters the availability
    SLO divides.
    """

    server: _TelemetryHTTPServer
    protocol_version = "HTTP/1.1"
    # Headers and body go out as two writes; with Nagle on, the body of a
    # keep-alive response waits for the client's delayed ACK (~40 ms).
    disable_nagle_algorithm = True

    def do_GET(self) -> None:  # noqa: N802 (BaseHTTPRequestHandler API)
        registry = self.server.registry
        start = time.perf_counter()
        registry.counter(
            "serve.http_requests_total",
            help="Telemetry HTTP requests served (any status).",
        ).inc()
        self._responded = False
        try:
            self._handle()
        except Exception as exc:  # handler bug -> structured 500, not a torn socket
            logger.exception("telemetry handler failed for %s", self.path)
            if not self._responded:
                try:
                    self._reply_error(500, "internal", f"internal error: {exc}")
                except OSError:
                    pass  # client already gone; the counter still recorded it
            else:
                registry.counter(
                    "serve.http_errors_total",
                    help="Telemetry HTTP responses with a 5xx status.",
                ).inc()
        finally:
            registry.timing(
                "serve.scrape_seconds",
                help="Telemetry HTTP request handling latency.",
            ).observe(time.perf_counter() - start)

    def _handle(self) -> None:
        parsed = urlparse(self.path)
        if parsed.path == "/healthz":
            self._reply(200, "ok\n", _TEXT)
            return
        self._route(parsed)

    # -- routing ---------------------------------------------------------

    def _route(self, parsed) -> None:
        path = parsed.path
        if path == "/metrics":
            self._reply(200, render_prometheus(self.server.registry),
                        PROMETHEUS_CONTENT_TYPE)
        elif path == "/readyz":
            if self.server.ready_fn():
                self._reply(200, "ready\n", _TEXT)
            else:
                self._reply_error(503, "not_ready", "monitor not ready")
        elif path == "/status":
            self._reply_json(self.server.status_fn())
        elif path == "/api/v1/alerts":
            self._reply_alerts()
        elif path == "/api/v1/series" or path.startswith("/api/v1/series/"):
            self._reply_series(path, parse_qs(parsed.query))
        else:
            self._reply_error(404, "not_found", f"unknown path {path}")

    def _reply_alerts(self) -> None:
        manager = self.server.alert_manager
        if manager is None:
            self._reply_error(404, "not_enabled", "alerting not enabled")
            return
        payload = manager.summary()
        payload["history"] = manager.history()
        self._reply_json(payload)

    def _reply_series(self, path: str, query: dict) -> None:
        store = self.server.store
        if store is None:
            self._reply_error(404, "not_enabled", "timeseries not enabled")
            return
        name = path[len("/api/v1/series/"):] if path != "/api/v1/series" else ""
        if not name:
            self._reply_json({"series": store.series_names()})
            return
        params = {}
        for key in ("start", "end", "step"):
            raw = query.get(key, [None])[0]
            if raw is None:
                continue
            try:
                params[key] = float(raw)
            except ValueError:
                self._reply_error(
                    400, "bad_request", f"bad {key}={raw!r}: not a number"
                )
                return
        try:
            result = store.query(name, **params)
        except KeyError:
            self._reply_error(404, "not_found", f"unknown series {name!r}")
            return
        self._reply_json(result)

    # -- response writing ------------------------------------------------

    def _reply_json(self, payload: dict) -> None:
        self._reply(200, json.dumps(payload, indent=2) + "\n", _JSON)

    def _reply_error(self, code: int, error_code: str, message: str) -> None:
        self._reply(code, error_body(error_code, message), _JSON)

    def _reply(self, code: int, body: str, content_type: str) -> None:
        payload = body.encode("utf-8")
        if code >= 500:
            self.server.registry.counter(
                "serve.http_errors_total",
                help="Telemetry HTTP responses with a 5xx status.",
            ).inc()
        self._responded = True
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, fmt: str, *args: object) -> None:
        logger.debug("%s %s", self.address_string(), fmt % args)


class TelemetryServer:
    """The scrape server, running on a daemon thread between start/stop.

    Lifecycle is strict: :meth:`start` while already serving raises
    :class:`~repro.errors.ServeError`, :meth:`stop` is idempotent, and a
    stopped server stays stopped (its socket is released; construct a new
    server to serve again).

    >>> registry = MetricsRegistry()
    >>> registry.counter("demo.hits").inc(3)
    >>> server = TelemetryServer(registry, status_fn=dict, ready_fn=lambda: True)
    >>> port = server.start()                                # doctest: +SKIP
    >>> urlopen(f"http://127.0.0.1:{port}/metrics").read()   # doctest: +SKIP
    """

    def __init__(
        self,
        registry: MetricsRegistry | None = None,
        status_fn: Callable[[], dict] | None = None,
        ready_fn: Callable[[], bool] | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        store: TimeSeriesStore | None = None,
        alert_manager: AlertManager | None = None,
    ) -> None:
        self._server = _TelemetryHTTPServer((host, port), _TelemetryHandler)
        self._server.registry = (
            registry if registry is not None else obs.get_tracer().metrics
        )
        self._server.status_fn = status_fn or dict
        self._server.ready_fn = ready_fn or (lambda: True)
        self._server.store = store
        self._server.alert_manager = alert_manager
        self._thread: threading.Thread | None = None
        self._closed = False

    @property
    def port(self) -> int:
        """The bound TCP port (useful with ``port=0``)."""
        return self._server.server_address[1]

    def start(self) -> int:
        """Begin serving on a daemon thread; returns the bound port.

        Raises :class:`~repro.errors.ServeError` if already serving or
        already stopped.
        """
        if self._closed:
            raise ServeError(
                "TelemetryServer was stopped and cannot be restarted; "
                "construct a new server"
            )
        if self._thread is not None:
            raise ServeError(
                f"TelemetryServer already serving on port {self.port}; "
                "start() may only be called once"
            )
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-telemetry",
            daemon=True,
        )
        self._thread.start()
        logger.info("serving telemetry on port %d", self.port)
        return self.port

    def stop(self) -> None:
        """Stop serving and release the socket (idempotent)."""
        if self._closed:
            return
        if self._thread is not None:
            self._server.shutdown()
            self._thread.join(timeout=5.0)
            self._thread = None
        self._server.server_close()
        self._closed = True

    def __enter__(self) -> "TelemetryServer":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
