"""The traced run: every layer's public calls, replayed in this process.

Spans come from the benchmark's own :class:`Tracer`, wrapped around calls
into each module (the program's internal spans are not used).  The replay
has three sections, one per workload (``batch``, ``stream``, ``serve``);
each per-layer metric is the duration of a span, a count, or a ratio.
Every traced run replays all three sections so that it reports every
per-layer metric; :data:`BYPASSED` records which layers each workload's
untraced run never reaches.
"""

from __future__ import annotations

import gc
import json
import socket
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import checks
import stats
import workloads

METRICS = ("gini", "entropy", "nakamoto")
SLIDING_SIZES = {"btc": (144, 1008, 4320), "eth": (6000, 42000, 180000)}
#: Requests per endpoint for the idle-server HTTP probes.
HTTP_REPEATS = 10
ENDPOINTS = ("metrics", "status", "series", "healthz")

BYPASSED = {
    "batch": ("repro.core.streaming", "repro.serve (monitor loop)", "repro.serve (HTTP)"),
    "stream": ("repro.chain", "repro.core.engine", "repro.analysis", "repro.parallel",
               "repro.table", "repro.sql", "repro.serve (HTTP)"),
    "serve": ("repro.chain", "repro.core.engine", "repro.analysis", "repro.parallel",
              "repro.table", "repro.sql"),
}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None


class Tracer:
    """Spans kept in memory and written out once, at the end of the run.

    Disabled, :meth:`span` still times its block (the replay reads
    durations either way) but keeps nothing; the replay runs once each way
    to measure what recording costs.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            record = Span(name, time.perf_counter(), float("nan"), None)
            try:
                yield record
            finally:
                record.end = time.perf_counter()
            return
        parent = self._stack[-1] if self._stack else None
        record = Span(name, time.perf_counter(), float("nan"), parent)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list[tuple[str, float]]:
        """Total self time per span name (duration minus the time its
        children cover), largest first."""
        return sorted(self_times(self.spans).items(), key=lambda kv: -kv[1])

    def write(self, path: Path) -> None:
        path.write_text(json.dumps([
            {"id": i, "name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
            for i, s in enumerate(self.spans)
        ]))


def self_times(spans: list[Span]) -> dict[str, float]:
    """Self time per span name; children are assumed not to overlap."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.end - span.start
    totals: dict[str, float] = {}
    for i, span in enumerate(spans):
        totals[span.name] = totals.get(span.name, 0.0) + (span.end - span.start - covered[i])
    return totals


@dataclass
class Replay:
    tracer: Tracer
    metrics: dict[str, tuple[float, str, str]] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    attempted: int = 0

    def put(self, name: str, value: float, unit: str, note: str) -> None:
        self.metrics[name] = (float(value), unit, note)

    def check(self, problems: list[str]) -> None:
        self.attempted += 1
        self.problems.extend(problems)


def _seconds(span: Span) -> float:
    return span.end - span.start


def cli_default_workers():
    """The ``--workers`` value a user gets without the flag."""
    from repro.cli import build_parser

    return build_parser().parse_args(["study"]).workers


# -- batch section: simulation, chain, engine, analysis, parallel, table, sql -----


def batch_section(r: Replay, t: Tracer, seed: int, golden: bytes) -> None:
    from repro.analysis.report import generate_report
    from repro.analysis.study import DecentralizationStudy
    from repro.chain.attribution import attribute
    from repro.core.engine import MeasurementEngine
    from repro.parallel import pool_status
    from repro.simulation import simulate_bitcoin_2019, simulate_ethereum_2019
    from repro.sql import QueryEngine

    workers = cli_default_workers()
    before = dict(pool_status()["lifetime"])
    chains = {}
    with t.span("simulation.btc") as s:
        chains["btc"] = simulate_bitcoin_2019(seed=workloads.CHAIN_SEED)
    r.put("simulation.btc_s", _seconds(s), "s", "simulate_bitcoin_2019()")
    with t.span("simulation.eth") as s:
        chains["eth"] = simulate_ethereum_2019(seed=workloads.CHAIN_SEED)
    r.put("simulation.eth_s", _seconds(s), "s", "simulate_ethereum_2019()")

    engines = {}
    for key, chain in chains.items():
        with t.span(f"chain.attribute_{key}") as s:
            credits = attribute(chain, policy="per-address", workers=workers)
        r.put(f"chain.attribute_{key}_s", _seconds(s), "s",
              f"attribute({key}, per-address, workers={workers!r})")
        engines[key] = MeasurementEngine(credits, workers=workers)

    windows = 0
    with t.span("engine.calendar") as s:
        for engine in engines.values():
            for granularity in ("day", "week", "month"):
                series = engine.measure_calendar_many(METRICS, granularity)["gini"]
                windows += len(series.values) + series.skipped
    r.put("engine.calendar_s", _seconds(s), "s", "measure_calendar_many x3 granularities x2 chains")
    with t.span("engine.sliding") as s:
        for key, engine in engines.items():
            for size in SLIDING_SIZES[key]:
                series = engine.measure_sliding_many(METRICS, size)["gini"]
                windows += len(series.values) + series.skipped
    r.put("engine.sliding_s", _seconds(s), "s", "measure_sliding_many over the paper's six N")
    r.put("engine.windows", windows, "count", "windows evaluated by the two sweeps")
    del engines

    def built_study() -> DecentralizationStudy:
        with t.span("analysis.setup"):
            study = DecentralizationStudy(
                bitcoin=chains["btc"], ethereum=chains["eth"],
                seed=workloads.CHAIN_SEED, workers=workers,
            )
            study.engine("btc")
            study.engine("eth")
        return study

    study = built_study()
    with t.span("analysis.findings") as s:
        findings = study.findings()
    r.put("analysis.findings_s", _seconds(s), "s", "findings() on a built study")
    r.check([] if (findings.more_decentralized, findings.more_stable)
            == ("bitcoin", "ethereum") else ["findings changed"])
    study = built_study()
    with t.span("analysis.figures") as s:
        figures = study.all_figures()
    r.put("analysis.figures_s", _seconds(s), "s", "all_figures() on a built study")
    r.check([] if len(figures) == 14 else [f"{len(figures)} figures, expected 14"])
    study = built_study()
    with t.span("analysis.report") as s:
        text = generate_report(study)
    r.put("analysis.report_s", _seconds(s), "s", "generate_report() on a built study")
    r.check(checks.check_report(text.encode("utf-8"), golden))
    del study, figures

    eth = chains["eth"]
    with t.span("table.build_eth") as s:
        tables = {"blocks": eth.block_table(), "credits": eth.to_table()}
    r.put("table.build_eth_s", _seconds(s), "s", "Chain.block_table() + Chain.to_table()")
    engine = QueryEngine(tables, workers=workers)
    rows_out = 0
    for name, sql, expected in workloads.query_set(seed, eth):
        with t.span(f"sql.{name}") as s:
            result = engine.execute(sql)
        r.put(f"sql.{name}_s", _seconds(s), "s", f"QueryEngine.execute ({name})")
        rows = result.to_rows()
        rows_out += len(rows)
        r.check(checks.check_rows(rows, expected, name))
    r.put("sql.rows_out", rows_out, "count", "rows returned by the four queries")
    del engine, tables

    after = pool_status()["lifetime"]
    r.put("parallel.pools", after["pools_created"] - before["pools_created"], "count",
          "worker pools created during the batch section")
    r.put("parallel.tasks", after["tasks_submitted"] - before["tasks_submitted"], "count",
          "pool tasks submitted during the batch section")


# -- stream section: feed, streaming monitor, run_monitor, history -----------------


def block_feed(chain, blocks: int) -> list[list[str]]:
    """Per-block producer-name lists, built the way ``repro monitor`` does."""
    offsets, ids, names = chain.offsets, chain.producer_ids, chain.producer_names
    return [[names[pid] for pid in ids[offsets[i]:offsets[i + 1]]] for i in range(blocks)]


def stream_section(r: Replay, t: Tracer) -> None:
    from repro import obs
    from repro.core.streaming import StreamingMonitor
    from repro.obs.prometheus import render_prometheus
    from repro.serve import run_monitor
    from repro.simulation import simulate_bitcoin_2019, simulate_ethereum_2019

    plans = [
        ("btc", simulate_bitcoin_2019, None, workloads.BTC_WINDOW),
        ("eth", simulate_ethereum_2019, workloads.STREAM_ETH_BLOCKS, workloads.ETH_WINDOW),
    ]
    total = feed_s = run_s = bare_s = 0.0
    evaluations = 0
    for key, simulate, limit, window in plans:
        chain = simulate(seed=workloads.CHAIN_SEED)
        blocks = chain.n_blocks if limit is None else limit
        name = chain.spec.name
        with t.span(f"monitor.feed.{key}") as s:
            feed = block_feed(chain, blocks)
        feed_s += _seconds(s)
        del chain
        monitor = StreamingMonitor(window)
        with t.span(f"streaming.push.{key}") as s:
            for producers in feed:
                monitor.push(producers)
        r.put(f"streaming.push_us_per_block.{key}", _seconds(s) / blocks * 1e6, "us",
              f"StreamingMonitor.push over a prebuilt {key} feed")
        evaluations += monitor.evaluations
        want = checks.expected_evaluations(blocks, window, max(window // 2, 1))
        r.check([] if monitor.evaluations == want
                else [f"streaming {key}: {monitor.evaluations} evaluations, L = {want}"])
        with t.span(f"monitor.run.{key}") as s:
            run = run_monitor(iter(feed), window, chain=name, total_blocks=blocks,
                              print_fn=lambda line: None)
        run_s += _seconds(s)
        with t.span(f"monitor.run_no_history.{key}") as s:
            run_monitor(iter(feed), window, chain=name, total_blocks=blocks,
                        print_fn=lambda line: None, history=False)
        bare_s += _seconds(s)
        r.check([] if run.evaluations == want and run.latest == monitor.latest()
                else [f"run_monitor {key} disagrees with StreamingMonitor"])
        total += blocks
    r.put("streaming.evaluations", evaluations, "count", "window evaluations, btc + eth")
    r.put("monitor.feed_us_per_block", feed_s / total * 1e6, "us",
          "building per-block producer-name lists")
    r.put("monitor.run_us_per_block", run_s / total * 1e6, "us",
          "run_monitor with defaults, no server")
    r.put("monitor.history_us_per_block", (run_s - bare_s) / total * 1e6, "us",
          "run_monitor minus the same call with history=False")
    registry = obs.get_tracer().metrics
    renders = []
    for _ in range(20):
        with t.span("obs.render_metrics") as s:
            render_prometheus(registry)
        renders.append(_seconds(s) * 1000.0)
    r.put("obs.render_metrics_ms", stats.median(renders), "ms",
          "render_prometheus() on the registry after the runs, median of 20")


# -- serve section: the HTTP path of an idle serving monitor -------------------------


def _http_get(sock: socket.socket, path: str, close: bool) -> tuple[int, bytes, float, float]:
    """One GET; returns (status, body, seconds to first byte, seconds from
    first to last byte)."""
    headers = "Connection: close\r\n" if close else ""
    start = time.perf_counter()
    sock.sendall(f"GET {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n{headers}\r\n".encode())
    data = sock.recv(65536)
    first = time.perf_counter()
    while b"\r\n\r\n" not in data:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("connection closed inside the headers")
        data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    length = next(int(line.split(":", 1)[1]) for line in lines[1:]
                  if line.lower().startswith("content-length:"))
    while len(body) < length:
        chunk = sock.recv(65536)
        if not chunk:
            raise ConnectionError("connection closed inside the body")
        body += chunk
    return status, body, first - start, time.perf_counter() - first


def serve_section(r: Replay, t: Tracer, program, seed: int) -> None:
    import random

    series = random.Random(seed).choice(workloads.SERIES_CHOICES)
    paths = {"metrics": "/metrics", "status": "/status",
             "series": f"/api/v1/series/{series}", "healthz": "/healthz"}
    port_file = program.scratch / "port-traced"
    port_file.unlink(missing_ok=True)
    with t.span("serve.launch_and_ingest"):
        run = program.start(
            "monitor", "--chain", "eth", "--window", str(workloads.ETH_WINDOW),
            "--blocks", str(workloads.STREAM_ETH_BLOCKS), "--serve", "0",
            "--port-file", str(port_file), "--linger", "-1",
        )
        try:
            port = workloads.wait_port(run, port_file)
            finished = port is not None and _wait_finished(port)
        except BaseException:
            run.stop()
            raise
    if not finished:
        run.stop()
        r.check([f"traced serve: monitor never finished: {run.stderr[-300:]}"])
        return
    try:
        for ep in ENDPOINTS:
            ttfb, body_ms, fresh = [], [], []
            with t.span(f"serve.keepalive.{ep}"):
                with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
                    for _ in range(HTTP_REPEATS):
                        status, body, first, rest = _http_get(sock, paths[ep], close=False)
                        r.check(checks.check_scrape(ep, status, body))
                        ttfb.append(first * 1000.0)
                        body_ms.append(rest * 1000.0)
            with t.span(f"serve.fresh.{ep}"):
                for _ in range(HTTP_REPEATS):
                    start = time.perf_counter()
                    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
                        status, body, _, _ = _http_get(sock, paths[ep], close=True)
                    fresh.append((time.perf_counter() - start) * 1000.0)
                    r.check(checks.check_scrape(ep, status, body))
            r.put(f"serve.ttfb_ms.{ep}", stats.median(ttfb), "ms",
                  f"keep-alive, idle server: request -> first byte ({ep})")
            r.put(f"serve.body_ms.{ep}", stats.median(body_ms), "ms",
                  f"keep-alive, idle server: first -> last byte ({ep})")
            r.put(f"serve.fresh_ms.{ep}", stats.median(fresh), "ms",
                  f"new connection per request: connect -> last byte ({ep})")
    finally:
        code = run.stop()
    r.check([] if code == 0 else [f"traced serve monitor exit {code}"])


def _wait_finished(port: int, timeout: float = 120.0) -> bool:
    """Poll ``/status`` on fresh connections until the feed is finished."""
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline:
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
                status, body, _, _ = _http_get(sock, "/status", close=True)
            if status == 200 and json.loads(body).get("finished"):
                return True
        except (OSError, ValueError):
            pass
        time.sleep(0.1)
    return False


# -- the whole replay ----------------------------------------------------------------


def _import_cli_seconds(program) -> list[float]:
    code = ("import time; t = time.perf_counter(); import repro.cli; "
            "print(time.perf_counter() - t)")
    return [float(program.python(code).stdout) for _ in range(3)]


def replay(program, seed: int) -> Replay:
    """Replay every section traced, then again with spans off; the per-layer
    metrics come from the traced pass."""
    import repro.analysis.report  # noqa: F401  (import cost stays out of both passes)
    import repro.cli  # noqa: F401
    import repro.serve  # noqa: F401

    golden = (program.root / "STUDY_REPORT.md").read_bytes()
    traced = Replay(Tracer(enabled=True))
    traced.put("cli.import_s", stats.median(_import_cli_seconds(program)), "s",
               "cold `import repro.cli`, median of 3 fresh interpreters")
    sections = {
        "batch": lambda r: batch_section(r, r.tracer, seed, golden),
        "stream": lambda r: stream_section(r, r.tracer),
        "serve": lambda r: serve_section(r, r.tracer, program, seed),
    }
    untraced = Replay(Tracer(enabled=False))
    for name, section in sections.items():
        walls = []
        for r in (traced, untraced):
            start = time.perf_counter()
            with r.tracer.span(f"replay.{name}"):
                section(r)
            walls.append(time.perf_counter() - start)
            gc.collect()
        traced.put(f"obs.trace_overhead.{name}", walls[0] / walls[1], "ratio",
                   f"traced / untraced wall of the {name} section")
    traced.problems += untraced.problems
    traced.attempted += untraced.attempted
    return traced
