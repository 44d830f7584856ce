"""Live telemetry serving for a long-running streaming monitor.

The paper argues for *continuous* measurement; this package is the
operational half of that argument — a dependency-free HTTP server
(stdlib :class:`~http.server.ThreadingHTTPServer`) an operator can point
Prometheus at while a :class:`~repro.core.streaming.StreamingMonitor`
ingests blocks:

:mod:`repro.serve.http`
    The endpoints (``/metrics``, ``/healthz``, ``/readyz``, ``/status``,
    ``/api/v1/series``, ``/api/v1/alerts``), standardized JSON error
    bodies, and the :class:`TelemetryServer` lifecycle.
:mod:`repro.serve.ingest`
    The bounded backpressure queue between a block feed and the monitor.
:mod:`repro.serve.monitor`
    :func:`run_monitor`, the operational entry point behind
    ``repro monitor``.
:mod:`repro.serve.state`
    The thread-safe :class:`MonitorState` snapshot both sides share.

The original single-module API (``from repro.serve import
TelemetryServer, MonitorState, run_monitor, ...``) is re-exported here
unchanged.
"""

from repro.serve.http import (
    PROMETHEUS_CONTENT_TYPE,
    TelemetryServer,
    error_body,
)
from repro.serve.ingest import IngestQueue
from repro.serve.monitor import MonitorRun, run_monitor
from repro.serve.state import MonitorState

__all__ = [
    "PROMETHEUS_CONTENT_TYPE",
    "TelemetryServer",
    "error_body",
    "IngestQueue",
    "MonitorRun",
    "run_monitor",
    "MonitorState",
]
