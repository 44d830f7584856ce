"""Lifecycle hardening and error-body contract for the telemetry server.

``start()`` twice raises a clear :class:`~repro.errors.ServeError`,
``stop()`` is idempotent, a handler exception becomes a structured 500 JSON body (and bumps
``serve.http_errors_total``), and every 4xx/5xx on the API carries the
standardized ``{"error": {"code": ..., "message": ...}}`` shape.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.errors import ServeError
from repro.obs.metrics import MetricsRegistry
from repro.serve import TelemetryServer, error_body


def http_get(port: int, path: str, timeout: float = 5.0):
    """GET localhost -> (status, headers, body_text)."""
    try:
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}{path}", timeout=timeout
        ) as response:
            return response.status, response.headers, response.read().decode()
    except urllib.error.HTTPError as err:
        return err.code, err.headers, err.read().decode()


def error_payload(body: str) -> dict:
    """Assert the standardized error shape and return the inner object."""
    payload = json.loads(body)
    assert set(payload) == {"error"}
    assert set(payload["error"]) == {"code", "message"}
    return payload["error"]


class TestServerLifecycle:
    def test_start_twice_raises_serve_error(self):
        server = TelemetryServer(MetricsRegistry())
        try:
            server.start()
            with pytest.raises(ServeError, match="already serving"):
                server.start()
        finally:
            server.stop()

    def test_stop_is_idempotent(self):
        server = TelemetryServer(MetricsRegistry())
        server.start()
        server.stop()
        server.stop()
        server.stop()

    def test_stopped_server_cannot_restart(self):
        server = TelemetryServer(MetricsRegistry())
        server.start()
        server.stop()
        with pytest.raises(ServeError, match="cannot be restarted"):
            server.start()

    def test_stop_before_start_releases_the_socket(self):
        server = TelemetryServer(MetricsRegistry())
        server.stop()  # never started: still clean
        with pytest.raises(ServeError):
            server.start()


class TestHandlerExceptions:
    def test_crashing_status_fn_becomes_structured_500(self):
        registry = MetricsRegistry()

        def exploding_status():
            raise RuntimeError("status exploded")

        with TelemetryServer(registry, status_fn=exploding_status) as server:
            status, headers, body = http_get(server.port, "/status")
        assert status == 500
        assert headers.get("Content-Type").startswith("application/json")
        error = error_payload(body)
        assert error["code"] == "internal"
        assert "status exploded" in error["message"]
        assert registry.snapshot()["counters"]["serve.http_errors_total"] == 1

    def test_healthy_endpoints_survive_a_crashing_neighbour(self):
        def exploding_status():
            raise RuntimeError("boom")

        with TelemetryServer(
            MetricsRegistry(), status_fn=exploding_status
        ) as server:
            assert http_get(server.port, "/status")[0] == 500
            assert http_get(server.port, "/healthz")[0] == 200
            assert http_get(server.port, "/metrics")[0] == 200


class TestErrorBodyContract:
    def test_error_body_shape(self):
        assert json.loads(error_body("x", "y")) == {
            "error": {"code": "x", "message": "y"}
        }

    def test_unknown_path_404(self):
        with TelemetryServer(MetricsRegistry()) as server:
            status, headers, body = http_get(server.port, "/nope")
        assert status == 404
        assert headers.get("Content-Type").startswith("application/json")
        error = error_payload(body)
        assert error["code"] == "not_found"
        assert "/nope" in error["message"]

    def test_series_and_alerts_not_enabled_404(self):
        with TelemetryServer(MetricsRegistry()) as server:
            for path, expected in [
                ("/api/v1/series", "timeseries not enabled"),
                ("/api/v1/alerts", "alerting not enabled"),
            ]:
                status, _, body = http_get(server.port, path)
                assert status == 404
                assert error_payload(body)["message"] == expected

    def test_bad_series_param_400(self):
        from repro.obs.timeseries import TimeSeriesStore

        store = TimeSeriesStore()
        store.record("gini", 0.5)
        with TelemetryServer(MetricsRegistry(), store=store) as server:
            status, _, body = http_get(
                server.port, "/api/v1/series/gini?start=banana"
            )
        assert status == 400
        error = error_payload(body)
        assert error["code"] == "bad_request"
        assert "banana" in error["message"]

    def test_not_ready_503_is_structured(self):
        with TelemetryServer(
            MetricsRegistry(), ready_fn=lambda: False
        ) as server:
            status, headers, body = http_get(server.port, "/readyz")
        assert status == 503
        assert headers.get("Content-Type").startswith("application/json")
        assert error_payload(body)["code"] == "not_ready"
