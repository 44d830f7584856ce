"""Degraded-mode behaviour under concurrent load.

The acceptance test: parallel ``/status`` requests fired across a
monitor crash -> restart window must each get a 200 — never a
connection reset or a 5xx — while ``/readyz`` reports the degraded
window as 503 and recovers to 200.
"""

import threading
import time
import urllib.error
import urllib.request

import pytest

from repro import obs
from repro.serve import run_monitor


@pytest.fixture(autouse=True)
def clean_global_registry():
    """run_monitor writes to the process-wide registry; keep tests isolated."""
    obs.get_tracer().metrics.reset()
    yield
    obs.get_tracer().metrics.reset()


def wait_until(predicate, timeout: float = 10.0, interval: float = 0.02):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


def http_probe(port: int, path: str):
    """GET -> (status, headers) or ('error', reason) — never raises."""
    try:
        with urllib.request.urlopen(
            f"http://127.0.0.1:{port}{path}", timeout=5.0
        ) as response:
            response.read()
            return response.status, response.headers
    except urllib.error.HTTPError as err:
        err.read()
        return err.code, err.headers
    except (urllib.error.URLError, OSError, TimeoutError) as exc:
        return "error", repr(exc)


class TestDegradedConcurrentResponses:
    def test_every_response_is_an_allowed_outcome_across_crash_restart(
        self, tmp_path
    ):
        """Fire parallel /status requests while the monitor crashes on a
        poison block and restarts; every single answer must be a 200."""
        gate = threading.Event()
        stop = threading.Event()
        port_file = tmp_path / "port"
        results = []

        def poisoned_feed():
            for i in range(30):
                yield [f"pool-{i % 3}"]
            yield []  # poison: push() raises, the supervisor restarts
            assert gate.wait(timeout=30.0)
            for i in range(40):
                yield [f"pool-{i % 3}"]

        def run():
            results.append(
                run_monitor(
                    poisoned_feed(),
                    window_size=10,
                    stride=5,
                    chain="degraded",
                    serve_port=0,
                    linger=-1.0,
                    port_file=str(port_file),
                    stop_event=stop,
                    max_restarts=2,
                    restart_backoff=0.05,
                    print_fn=lambda _line: None,
                )
            )

        monitor_thread = threading.Thread(target=run)
        monitor_thread.start()
        outcomes: list[int] = []
        bad: list[str] = []
        lock = threading.Lock()
        hammer_stop = threading.Event()

        def hammer() -> None:
            while not hammer_stop.is_set():
                status, detail = http_probe(port, "/status")
                with lock:
                    if status == 200:
                        outcomes.append(status)
                    elif status == "error":
                        bad.append(f"connection error: {detail}")
                    else:
                        bad.append(f"unexpected {status}")

        hammers = []
        try:
            assert wait_until(port_file.exists), "port file never appeared"
            port = int(port_file.read_text().strip())
            # Start hammering before the crash is visible, ride through it.
            for _ in range(6):
                t = threading.Thread(target=hammer, daemon=True)
                t.start()
                hammers.append(t)
            assert wait_until(
                lambda: http_probe(port, "/readyz")[0] == 503
            ), "the poison block never degraded readiness"
            # Keep hammering through the degraded window...
            time.sleep(0.3)
            gate.set()  # ...and across the restart back to healthy.
            assert wait_until(
                lambda: http_probe(port, "/readyz")[0] == 200
            ), "the restarted monitor never recovered"
            time.sleep(0.2)
        finally:
            hammer_stop.set()
            for t in hammers:
                t.join(timeout=10.0)
            gate.set()
            stop.set()
            monitor_thread.join(timeout=30.0)
        assert not monitor_thread.is_alive()
        assert bad == [], f"disallowed responses: {bad[:10]}"
        assert outcomes, "the hammer never completed a request"
        (result,) = results
        assert result.restarts == 1
        assert result.blocks == 70
