"""The telemetry HTTP server: routing, overload protection, lifecycle.

Endpoint routing lives in :class:`_TelemetryHandler`; the overload layer
(:mod:`repro.serve.overload`) is consulted in a fixed order before any
handler work happens:

1. ``/healthz`` bypasses everything — liveness must answer even when
   the server is drowning.
2. Rate limiting: a client over its token budget gets **429** with the
   draft ``RateLimit-*`` headers and ``Retry-After``.
3. Shed check: while the shed breaker is open (or the monitor is
   degraded), cacheable endpoints (``/status``, ``/api/v1/series*``)
   serve the last cached snapshot byte-identical, marked
   ``X-Repro-Degraded: stale`` — no admission, no handler work.
4. Fresh-cache fast path: a cache entry younger than the TTL is served
   as-is (with its strong ETag; ``If-None-Match`` gets **304**).
5. Admission: at most ``max_inflight`` requests execute concurrently,
   a bounded queue waits briefly for a slot, and everyone else gets
   **503** + ``Retry-After`` — or the stale snapshot if one exists.

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
from repro.serve.overload import OverloadConfig, OverloadGuard

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


def _is_cacheable(path: str) -> bool:
    """Endpoints whose 200 bodies are snapshot-cached for load shedding."""
    return (
        path == "/status"
        or path == "/api/v1/series"
        or path.startswith("/api/v1/series/")
    )


class _TelemetryHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the telemetry callbacks for handlers."""

    daemon_threads = True

    registry: MetricsRegistry
    status_fn: Callable[[], dict]
    ready_fn: Callable[[], bool]
    store: TimeSeriesStore | None
    alert_manager: AlertManager | None
    overload: OverloadGuard | None


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
        self._extra_headers: list[tuple[str, str]] = []
        self._cache_key: str | None = None
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

    # -- overload flow ---------------------------------------------------

    def _handle(self) -> None:
        parsed = urlparse(self.path)
        path = parsed.path
        if path == "/healthz":
            # Liveness answers unconditionally: no rate limit, no queue.
            self._reply(200, "ok\n", _TEXT)
            return
        guard = self.server.overload
        if guard is None:
            self._route(parsed)
            return
        if guard.limiter is not None:
            decision = guard.limiter.allow(self._client_key())
            if not decision.allowed:
                self._extra_headers = decision.headers()
                self._reply_error(
                    429, "rate_limited",
                    f"client over {decision.limit:g} requests/second; "
                    f"retry in {decision.retry_after:.3f}s",
                )
                return
            self._extra_headers = decision.headers()
        cacheable = _is_cacheable(path)
        if cacheable:
            self._cache_key = path + (f"?{parsed.query}" if parsed.query else "")
            if guard.shedder.shedding():
                hit = guard.cache.get(self._cache_key)
                if hit is not None:
                    guard.shedder.note_shed()
                    self._reply_cached(hit[0], stale=True)
                    return
                # Nothing cached yet: fall through and compute one.
            else:
                hit = guard.cache.get(self._cache_key, fresh_only=True)
                if hit is not None:
                    self._reply_cached(hit[0], stale=False)
                    return
        if guard.admission is None:
            self._route(parsed)
            return
        if guard.admission.acquire():
            guard.shedder.note_admitted()
            try:
                self._route(parsed)
            finally:
                guard.admission.release()
            return
        guard.shedder.note_saturated()
        guard.shedder.note_shed()
        if cacheable and self._cache_key is not None:
            hit = guard.cache.get(self._cache_key)
            if hit is not None:
                self._reply_cached(hit[0], stale=True)
                return
        self._extra_headers.append(
            ("Retry-After", str(max(1, round(guard.config.retry_after))))
        )
        self._reply_error(
            503, "overloaded",
            "server is at capacity; retry shortly",
        )

    def _client_key(self) -> str:
        """Rate-limit key: explicit client id, else the socket peer."""
        return self.headers.get("X-Client-Id") or self.client_address[0]

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
            body = json.dumps(self.server.status_fn(), indent=2) + "\n"
            self._reply_cacheable(body)
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
            self._reply_cacheable(
                json.dumps({"series": store.series_names()}, indent=2) + "\n"
            )
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
        self._reply_cacheable(json.dumps(result, indent=2) + "\n")

    # -- response writing ------------------------------------------------

    def _reply_json(self, payload: dict) -> None:
        self._reply(200, json.dumps(payload, indent=2) + "\n", _JSON)

    def _reply_error(self, code: int, error_code: str, message: str) -> None:
        self._reply(code, error_body(error_code, message), _JSON)

    def _reply_cacheable(self, body: str) -> None:
        """Send a fresh 200 JSON body, snapshotting it for load shedding."""
        guard = self.server.overload
        if guard is None or self._cache_key is None:
            self._reply(200, body, _JSON)
            return
        entry = guard.cache.put(self._cache_key, body.encode("utf-8"), _JSON)
        self._extra_headers.append(("ETag", entry.etag))
        if self.headers.get("If-None-Match") == entry.etag:
            self._reply_raw(304, b"", _JSON)
            return
        self._reply_raw(200, entry.body, entry.content_type)

    def _reply_cached(self, entry, stale: bool) -> None:
        """Serve a snapshot byte-identical to when it was cached."""
        self._extra_headers.append(("ETag", entry.etag))
        if stale:
            self._extra_headers.append(("X-Repro-Degraded", "stale"))
        if self.headers.get("If-None-Match") == entry.etag:
            self._reply_raw(304, b"", entry.content_type)
            return
        self._reply_raw(200, entry.body, entry.content_type)

    def _reply(self, code: int, body: str, content_type: str) -> None:
        self._reply_raw(code, body.encode("utf-8"), content_type)

    def _reply_raw(self, code: int, payload: bytes, content_type: str) -> None:
        if code >= 500:
            self.server.registry.counter(
                "serve.http_errors_total",
                help="Telemetry HTTP responses with a 5xx status.",
            ).inc()
        self._responded = True
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(payload)))
        for name, value in self._extra_headers:
            self.send_header(name, value)
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
        overload: OverloadGuard | OverloadConfig | None = None,
    ) -> None:
        self._server = _TelemetryHTTPServer((host, port), _TelemetryHandler)
        self._server.registry = (
            registry if registry is not None else obs.get_tracer().metrics
        )
        self._server.status_fn = status_fn or dict
        self._server.ready_fn = ready_fn or (lambda: True)
        self._server.store = store
        self._server.alert_manager = alert_manager
        if isinstance(overload, OverloadConfig):
            overload = OverloadGuard(overload, registry=self._server.registry)
        self._server.overload = overload
        self._thread: threading.Thread | None = None
        self._closed = False

    @property
    def port(self) -> int:
        """The bound TCP port (useful with ``port=0``)."""
        return self._server.server_address[1]

    @property
    def overload(self) -> OverloadGuard | None:
        """The overload guard this server consults (None = unprotected)."""
        return self._server.overload

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
