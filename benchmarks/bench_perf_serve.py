"""Performance — telemetry serving.

Live latency of one ``GET /status`` against an in-process
:class:`~repro.serve.TelemetryServer`; the result lands in
``BENCH_pipeline.json`` for ``repro bench-diff`` to gate.
"""

import urllib.request

from repro.obs.metrics import MetricsRegistry
from repro.serve import TelemetryServer


def _status_server():
    registry = MetricsRegistry()
    return TelemetryServer(
        registry,
        status_fn=lambda: {"chain": "bench", "blocks": 4_320,
                           "metrics": {"gini": 0.41, "entropy": 3.2}},
    )


def _fetch(port: int, path: str = "/status") -> bytes:
    with urllib.request.urlopen(
        f"http://127.0.0.1:{port}{path}", timeout=5.0
    ) as response:
        return response.read()


def test_perf_serve_status_request(benchmark):
    """Microbenchmark: one GET /status."""
    with _status_server() as server:
        body = benchmark(_fetch, server.port)
    assert b"bench" in body
