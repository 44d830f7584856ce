"""The three workloads, run untraced against cold CLI processes.

``batch``  the paper as users run it: cold ``study``, ``figure --id all``,
           ``report`` and four ``query --chain eth`` shapes in a closed loop.
``stream`` ``monitor --chain btc`` and ``monitor --chain eth --window 6000``
           over a fixed prefix: per-block ingest, no attribution/engine/SQL.
``serve``  ``monitor --chain eth --window 6000 --serve 0`` over the full
           year, scraped by an open-loop generator while it ingests.

Each workload returns an :class:`Outcome`: the metrics named in the
benchmark's note (each with unit and sample count), the four end-to-end
metrics every workload reports, and the count of operations attempted
and failed (a wrong output counts as failed).
"""

from __future__ import annotations

import contextlib
import http.client
import io
import json
import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import stats
from procs import Program, peak_child_rss_mb

#: The calibrated simulation seed.  ``STUDY_REPORT.md`` and the paper's
#: calibration depend on it, so the workload seed never changes it.
CHAIN_SEED = 2019

#: Paper day windows (N) per chain; the stride M is the CLI default N/2.
BTC_WINDOW = 144
ETH_WINDOW = 6000
#: ETH prefix the ``stream`` workload monitors.
STREAM_ETH_BLOCKS = 400_000

#: ``serve``: offered load, about a third of the server's capacity at the
#: commit this benchmark was defined on (~40 req/s over two connections).
SCRAPE_RATE = 15.0
SCRAPE_CONNECTIONS = 2
#: Extra launches per ``serve`` run that only time launch -> ready.
SERVE_EXTRA_LAUNCHES = 4
#: Series the ``serve`` generator may read; the seed picks one.
SERIES_CHOICES = (
    "monitor.metric.ethereum.gini",
    "monitor.metric.ethereum.entropy",
    "monitor.metric.ethereum.nakamoto",
)

#: Heights covered by the join query and days covered by the day bucket.
JOIN_SPAN = 500
DAY_SPAN = 30


@dataclass
class Metric:
    value: float
    unit: str
    n: int
    how: str


@dataclass
class Outcome:
    metrics: dict[str, Metric] = field(default_factory=dict)
    end_to_end: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    problems: list[str] = field(default_factory=list)
    failed: int = 0
    invalid: str | None = None
    notes: list[str] = field(default_factory=list)

    def record(self, problems: list[str]) -> None:
        """Count one operation; any problem marks it failed."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def finish(self) -> None:
        self.metrics["rss_mb"] = Metric(
            peak_child_rss_mb(), "MB", 1, "peak RSS of the largest program process"
        )
        self.metrics["fail_ratio"] = Metric(
            self.failed / max(self.attempted, 1), "ratio", self.attempted,
            "operations failed, refused or wrong / attempted",
        )
        self.end_to_end["rss_mb"] = self.metrics["rss_mb"].value


def _median_metric(values: list[float], unit: str, how: str) -> Metric:
    return Metric(stats.median(values), unit, len(values), how)


# -- batch -------------------------------------------------------------------------


def query_set(seed: int, eth) -> list[tuple[str, str, list[dict]]]:
    """The four ETH query shapes with seed-picked literals, and their
    references computed from the chain's columns."""
    rng = random.Random(seed)
    first, last = int(eth.heights[0]), int(eth.heights[-1])
    point = rng.randint(first, last)
    join_lo = rng.randint(first, last - JOIN_SPAN)
    join_hi = join_lo + JOIN_SPAN - 1
    day_first = int(eth.timestamps[0]) // 86400 + 1
    day_last = int(eth.timestamps[-1]) // 86400 - DAY_SPAN
    day0 = rng.randint(day_first, day_last)
    ts_lo, ts_hi = day0 * 86400, (day0 + DAY_SPAN) * 86400 - 1
    return [
        (
            "groupby",
            "SELECT producer, COUNT(*) AS n FROM credits "
            "GROUP BY producer ORDER BY n DESC, producer",
            checks.ref_groupby(eth),
        ),
        (
            "point",
            f"SELECT * FROM blocks WHERE height = {point}",
            checks.ref_point(eth, point),
        ),
        (
            "join",
            "SELECT b.height, b.timestamp, c.producer FROM blocks b "
            "JOIN credits c ON b.height = c.height "
            f"WHERE b.height BETWEEN {join_lo} AND {join_hi} "
            "ORDER BY b.height, c.producer",
            checks.ref_join(eth, join_lo, join_hi),
        ),
        (
            "daily",
            "SELECT FLOOR(timestamp / 86400) AS day, "
            "COUNT(DISTINCT primary_producer) AS producers FROM blocks "
            f"WHERE timestamp BETWEEN {ts_lo} AND {ts_hi} "
            "GROUP BY FLOOR(timestamp / 86400) ORDER BY day",
            checks.ref_daily(eth, ts_lo, ts_hi),
        ),
    ]


def figures_reference() -> str:
    """``figure --id all`` rendered in this process from ``all_figures()``,
    serially, for comparison with the cold default-flag command."""
    from repro.cli import main

    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = main(["--workers", "1", "figure", "--id", "all"])
    if code != 0:
        raise RuntimeError(f"in-process figure rendering exited {code}")
    return buffer.getvalue()


def run_batch(program: Program, seed: int, seconds: float) -> Outcome:
    from repro.simulation import simulate_ethereum_2019

    eth = simulate_ethereum_2019(seed=CHAIN_SEED)
    queries = query_set(seed, eth)
    eth_blocks = eth.n_blocks
    del eth
    figures_ref = figures_reference()
    golden = (program.root / "STUDY_REPORT.md").read_bytes()
    report_path = program.scratch / "report.md"

    out = Outcome()
    walls: dict[str, list[float]] = {}

    def timed(key: str, *args: str):
        done = program.run(*args)
        walls.setdefault(key, []).append(done.wall)
        if done.returncode != 0:
            out.record([f"{key}: exit {done.returncode}: {done.stderr[-300:]}"])
            return None
        return done

    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        for _ in range(2):
            done = timed("help", "--help")
            if done is not None:
                out.record([] if "usage:" in done.stdout else ["--help printed no usage"])
        done = timed("study", "study")
        if done is not None:
            out.record(checks.check_study(done.stdout))
        done = timed("figures", "figure", "--id", "all")
        if done is not None:
            out.record(checks.check_same_text(done.stdout, figures_ref, "figure --id all"))
        report_path.unlink(missing_ok=True)
        done = timed("report", "report", "--out", str(report_path))
        if done is not None:
            out.record(checks.check_report(report_path.read_bytes(), golden))
        for name, sql, expected in queries:
            done = timed(f"query.{name}", "query", "--chain", "eth", "--sql", sql)
            if done is not None:
                out.record(checks.check_query(done.stdout, expected, name))

    m = out.metrics
    m["setup_s"] = _median_metric(walls["help"], "s", "cold `repro --help`")
    m["study_s"] = _median_metric(walls["study"], "s", "cold `repro study`")
    m["figures_s"] = _median_metric(walls["figures"], "s", "cold `repro figure --id all`")
    m["report_s"] = _median_metric(walls["report"], "s", "cold `repro report`")
    shapes = [walls[f"query.{name}"] for name, _, _ in queries]
    m["query_set_s"] = Metric(
        sum(stats.median(w) for w in shapes), "s", len(shapes[0]),
        "sum over the four query shapes of each shape's median cold wall",
    )
    for (name, _, _), w in zip(queries, shapes):
        m[f"query.{name}_s"] = _median_metric(w, "s", f"cold `repro query` ({name})")
    e = out.end_to_end
    e["setup_s"] = m["setup_s"].value
    e["op_wall_s"] = m["study_s"].value + m["figures_s"].value + m["report_s"].value
    e["blocks_per_s"] = len(queries) * eth_blocks / m["query_set_s"].value
    out.notes.append("op_wall_s = study_s + figures_s + report_s")
    out.notes.append(
        f"blocks_per_s = {len(queries)} queries x {eth_blocks} ETH blocks / query_set_s"
    )
    out.finish()
    return out


# -- stream ------------------------------------------------------------------------


def sliding_reference(chain, blocks: int, window: int) -> dict[str, float]:
    """Metric values of the last full window the monitor evaluates, from
    the batch engine's ``measure_sliding`` over the same prefix."""
    from repro.core.engine import MeasurementEngine

    engine = MeasurementEngine.from_chain(chain.slice_blocks(0, blocks), workers=1)
    stride = max(window // 2, 1)
    return {
        metric: float(engine.measure_sliding(metric, window, stride).values[-1])
        for metric in ("entropy", "gini", "nakamoto")
    }


def run_stream(program: Program, seed: int, seconds: float) -> Outcome:
    """The seed is not used: the inputs are the calibrated chains."""
    from repro.simulation import simulate_bitcoin_2019, simulate_ethereum_2019

    btc = simulate_bitcoin_2019(seed=CHAIN_SEED)
    eth = simulate_ethereum_2019(seed=CHAIN_SEED)
    plans = [
        ("btc", ("monitor", "--chain", "btc"), btc.n_blocks, BTC_WINDOW,
         sliding_reference(btc, btc.n_blocks, BTC_WINDOW)),
        ("eth", ("monitor", "--chain", "eth", "--window", str(ETH_WINDOW),
                 "--blocks", str(STREAM_ETH_BLOCKS)),
         STREAM_ETH_BLOCKS, ETH_WINDOW,
         sliding_reference(eth, STREAM_ETH_BLOCKS, ETH_WINDOW)),
    ]
    del btc, eth

    out = Outcome()
    setup: dict[str, list[float]] = {"btc": [], "eth": []}
    ingest: dict[str, list[float]] = {"btc": [], "eth": []}
    wall: dict[str, list[float]] = {"btc": [], "eth": []}
    start = time.perf_counter()
    while not wall["eth"] or time.perf_counter() - start < seconds:
        for key, args, blocks, window, latest in plans:
            run = program.start(*args)
            banner = run.wait_line("monitoring ")
            done = run.wait_line("monitored ")
            code = run.wait()
            end = time.perf_counter()
            problems = [] if code == 0 else [f"monitor {key}: exit {code}: {run.stderr[-300:]}"]
            if banner is None or done is None:
                problems.append(f"monitor {key}: missing banner or summary line")
            else:
                setup[key].append(banner.at - run.launched)
                ingest[key].append(done.at - banner.at)
                wall[key].append(end - run.launched)
                problems += checks.check_monitor(
                    run.stdout, blocks, window, max(window // 2, 1), latest
                )
            out.record(problems)
    if not setup["btc"] or not setup["eth"]:
        out.finish()
        return out

    m = out.metrics
    blocks = {plan[0]: plan[2] for plan in plans}
    for key in ("btc", "eth"):
        m[f"monitor_{key}_s"] = _median_metric(wall[key], "s", f"cold `repro monitor --chain {key}`")
        m[f"setup.{key}_s"] = _median_metric(setup[key], "s", f"{key}: launch -> banner")
        m[f"blocks_per_s.{key}"] = Metric(
            blocks[key] / stats.median(ingest[key]), "blocks/s", len(ingest[key]),
            f"{key}: blocks / median(banner -> 'monitored' line)",
        )
    m["setup_s"] = Metric(
        m["setup.btc_s"].value + m["setup.eth_s"].value, "s", len(setup["eth"]),
        "median launch -> banner, btc + eth",
    )
    total_ingest = stats.median(ingest["btc"]) + stats.median(ingest["eth"])
    m["blocks_per_s"] = Metric(
        (blocks["btc"] + blocks["eth"]) / total_ingest, "blocks/s", len(ingest["eth"]),
        "(btc + eth blocks) / (median btc + median eth banner -> 'monitored' line)",
    )
    e = out.end_to_end
    e["setup_s"] = m["setup_s"].value
    e["op_wall_s"] = m["monitor_btc_s"].value + m["monitor_eth_s"].value
    e["blocks_per_s"] = m["blocks_per_s"].value
    out.notes.append("op_wall_s = monitor_btc_s + monitor_eth_s")
    out.notes.append("the workload seed is ignored: stream inputs are the calibrated chains")
    out.finish()
    return out


# -- serve -------------------------------------------------------------------------


def wait_port(run, port_file: Path, timeout: float = 60.0) -> int | None:
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline and run.proc.poll() is None:
        try:
            text = port_file.read_text().strip()
        except FileNotFoundError:
            text = ""
        if text:
            return int(text)
        time.sleep(0.002)
    return None


def wait_ready(run, port: int, timeout: float = 60.0) -> float | None:
    """Poll ``/readyz`` on fresh connections; the time of the first 200."""
    deadline = time.perf_counter() + timeout
    while time.perf_counter() < deadline and run.proc.poll() is None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=10)
        try:
            conn.request("GET", "/readyz")
            response = conn.getresponse()
            response.read()
            if response.status == 200:
                return time.perf_counter()
        except OSError:
            pass
        finally:
            conn.close()
        time.sleep(0.005)
    return None


SERVE_ARGS = ("monitor", "--chain", "eth", "--window", str(ETH_WINDOW),
              "--serve", "0", "--linger", "-1")


def launch_ready(program: Program, out: Outcome, tag: str):
    """Start a serving monitor; returns (run, port, launch->ready seconds)."""
    port_file = program.scratch / f"port-{tag}"
    port_file.unlink(missing_ok=True)
    run = program.start(*SERVE_ARGS, "--port-file", str(port_file))
    port = wait_port(run, port_file)
    ready = wait_ready(run, port) if port is not None else None
    if ready is None:
        run.stop()
        out.record([f"serve launch {tag}: never ready: {run.stderr[-300:]}"])
        return None
    return run, port, ready - run.launched


def bound(root: Path, metric: str) -> float:
    """The regression bound ``BENCHMARK.json`` fixes for ``metric``."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return next(m["bound"] for m in spec["end_to_end"] if m["name"] == metric)


def run_serve(program: Program, seed: int, seconds: float) -> Outcome:
    """A run is invalid when the generator's own p95 lateness exceeds the
    ``op_wall_s`` bound as a share of the scrape p50: lateness alone could
    then move the gated metric by more than its bound."""
    lateness_bound = bound(program.root, "op_wall_s")
    rng = random.Random(seed)
    series = rng.choice(SERIES_CHOICES)
    cycle = [("metrics", "/metrics"), ("status", "/status"),
             ("series", f"/api/v1/series/{series}")]
    rng.shuffle(cycle)

    out = Outcome()
    setups: list[float] = []
    for i in range(SERVE_EXTRA_LAUNCHES):
        launched = launch_ready(program, out, f"setup{i}")
        if launched is None:
            continue
        run, _, setup = launched
        setups.append(setup)
        code = run.stop()
        out.record([] if code == 0 else [f"serve setup launch exit {code}"])
    launched = launch_ready(program, out, "main")
    if launched is None:
        out.finish()
        return out
    run, port, setup = launched
    setups.append(setup)
    banner = run.wait_line("monitoring ", timeout=5.0)

    lock = threading.Lock()
    progress: dict[str, tuple[float, int]] = {}
    lane_samples: list[list[stats.Sample]] = []

    def lane(index: int, due: list[float]) -> None:
        conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)

        def request(i: int) -> None:
            kind, path = cycle[(i * SCRAPE_CONNECTIONS + index) % len(cycle)]
            try:
                conn.request("GET", path)
                response = conn.getresponse()
                body = response.read()
                status = response.status
            except (OSError, http.client.HTTPException) as exc:
                conn.close()
                problems = [f"{kind}: {type(exc).__name__}: {exc}"]
            else:
                problems = checks.check_scrape(kind, status, body)
                if kind == "status" and not problems:
                    snapshot = json.loads(body)
                    if not snapshot.get("finished"):
                        with lock:
                            progress["last"] = (
                                float(snapshot["uptime_seconds"]),
                                int(snapshot["blocks_ingested"]),
                            )
            with lock:
                out.record(problems)

        try:
            samples = stats.drive_lane(due, request)
        finally:
            conn.close()
        with lock:
            lane_samples.append(samples)

    try:
        start = time.perf_counter()
        threads = [
            threading.Thread(target=lane, args=(i, due))
            for i, due in enumerate(
                stats.due_times(start, SCRAPE_RATE, seconds, SCRAPE_CONNECTIONS)
            )
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        code = run.stop()
    summary = [line.text for line in run.lines if line.text.startswith("monitored ")]
    out.record(
        ([] if code == 0 else [f"serve monitor exit {code}: {run.stderr[-300:]}"])
        + ([] if summary and banner else ["serve monitor printed no banner/summary"])
    )

    samples = [s for lane_list in lane_samples for s in lane_list]
    latencies = [s.latency * 1000.0 for s in samples]
    lateness = [x * 1000.0 for lane_list in lane_samples
                for x in stats.generator_lateness(lane_list)]
    m = out.metrics
    m["setup_s"] = _median_metric(setups, "s", "launch -> first /readyz 200")
    if not latencies or "last" not in progress:
        out.record(["serve: no scrape samples or no /status progress"])
        out.finish()
        return out
    m["scrape_p50_ms"] = _median_metric(latencies, "ms", "open-loop latency from due time")
    tail = stats.tail_percentile(latencies)
    if tail is not None:
        p, value = tail
        m["scrape_p95_ms"] = Metric(value, "ms", len(latencies), f"nearest-rank p{p:g}")
    uptime, blocks = progress["last"]
    m["blocks_per_s"] = Metric(
        blocks / uptime, "blocks/s", 1,
        "blocks ingested / monitor uptime, from the last /status before the "
        "feed finished or SIGTERM",
    )
    late_p95 = stats.nearest_rank(lateness, 95)
    m["generator_late_p95_ms"] = Metric(
        late_p95, "ms", len(lateness), "generator send lateness, p95"
    )
    if late_p95 > lateness_bound * m["scrape_p50_ms"].value:
        out.invalid = (
            f"generator ran late: p95 lateness {late_p95:.2f} ms exceeds "
            f"{lateness_bound:.0%} of scrape p50"
        )
    e = out.end_to_end
    e["setup_s"] = m["setup_s"].value
    e["op_wall_s"] = m["scrape_p50_ms"].value / 1000.0
    e["blocks_per_s"] = m["blocks_per_s"].value
    out.notes.append(f"endpoint cycle {[path for _, path in cycle]}, rate {SCRAPE_RATE:g}/s "
                     f"over {SCRAPE_CONNECTIONS} keep-alive connections")
    out.notes.append("op_wall_s = scrape_p50_ms / 1000")
    out.finish()
    return out


WORKLOADS = {"batch": run_batch, "stream": run_stream, "serve": run_serve}
