"""Keep-alive scrapes must not stall on delayed ACK.

A response goes out as two writes (headers, then body).  With Nagle's
algorithm on the accepted socket, the body of every keep-alive response
after the first waits for the client's delayed ACK, about 40 ms on
Linux, so an idle server answered a 100-byte ``/healthz`` in ~42 ms.
"""

import http.client
import socket
import statistics
import time

from repro.obs.metrics import MetricsRegistry
from repro.serve import TelemetryServer
from repro.serve import http as serve_http


def test_accepted_socket_has_tcp_nodelay(monkeypatch):
    seen = []
    original = serve_http._TelemetryHandler.setup

    def recording_setup(self):
        original(self)
        seen.append(self.connection.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY))

    monkeypatch.setattr(serve_http._TelemetryHandler, "setup", recording_setup)
    server = TelemetryServer(MetricsRegistry())
    port = server.start()
    try:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
        conn.request("GET", "/healthz")
        assert conn.getresponse().read()
        conn.close()
    finally:
        server.stop()
    assert seen and all(flag != 0 for flag in seen)


def test_back_to_back_keepalive_gets_finish_well_under_delayed_ack():
    server = TelemetryServer(MetricsRegistry())
    port = server.start()
    walls = []
    try:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=5)
        for _ in range(7):
            start = time.perf_counter()
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            assert response.status == 200
            response.read()
            walls.append(time.perf_counter() - start)
        conn.close()
    finally:
        server.stop()
    # Every request after the first reuses the connection; the delayed
    # ACK stall would put each of them at ~40 ms.
    assert statistics.median(walls[1:]) < 0.030, walls
