"""Performance — streaming monitor ingestion throughput.

A monitoring deployment must keep up with block arrival trivially; this
bench measures pushes/second through a Bitcoin-sized window (144/72) and a
day of Ethereum-scale feed (6,000 blocks, window 6,000 / stride 3,000),
fed by producer name one block at a time and, as ``repro monitor``
replays a chain, as one stride of integer id columns per push.
"""

import numpy as np

from repro.core.streaming import BlockRange, StreamingMonitor
from repro.obs.alerts import AlertManager, AlertRule
from repro.obs.metrics import MetricsRegistry


def make_feed(n_blocks: int, n_producers: int, seed: int) -> list[list[str]]:
    rng = np.random.default_rng(seed)
    names = [f"p{i}" for i in range(n_producers)]
    shares = rng.dirichlet(np.full(n_producers, 0.5))
    picks = rng.choice(n_producers, size=n_blocks, p=shares)
    return [[names[p]] for p in picks]


def test_perf_streaming_bitcoin_scale(benchmark):
    feed = make_feed(2_000, 25, seed=1)

    def run():
        monitor = StreamingMonitor(window_size=144, stride=72)
        manager = AlertManager(registry=MetricsRegistry())
        manager.add_rule(AlertRule("nakamoto-below-3", metric="nakamoto", below=3))
        monitor.push_many(feed)
        for _, latest in monitor.evaluations_since(0):
            manager.evaluate(latest)
        return monitor

    assert benchmark(run).evaluations == 26  # blocks 144, 216, ..., 1944


def test_perf_streaming_ethereum_scale(benchmark):
    feed = make_feed(12_000, 70, seed=2)

    def run():
        monitor = StreamingMonitor(
            window_size=6_000, stride=3_000, metrics=("gini", "entropy")
        )
        monitor.push_many(feed)
        return monitor

    assert benchmark(run).evaluations == 3  # blocks 6,000, 9,000 and 12,000


def make_columns(n_blocks: int, n_producers: int, seed: int):
    """The same feed as :func:`make_feed`, as CSR id columns."""
    rng = np.random.default_rng(seed)
    shares = rng.dirichlet(np.full(n_producers, 0.5))
    ids = rng.choice(n_producers, size=n_blocks, p=shares)
    return np.arange(n_blocks + 1, dtype=np.int64), ids


def test_perf_streaming_ethereum_scale_ranges(benchmark):
    """The `repro monitor` replay path: one stride of id columns per push."""
    offsets, ids = make_columns(12_000, 70, seed=2)
    stride = 3_000

    def run():
        monitor = StreamingMonitor(
            window_size=6_000, stride=stride, metrics=("gini", "entropy")
        )
        for start in range(0, ids.shape[0], stride):
            monitor.push_range(BlockRange(offsets, ids, start, start + stride))
        return monitor

    monitor = benchmark(run)
    names = StreamingMonitor(window_size=6_000, stride=stride, metrics=("gini", "entropy"))
    names.push_many(make_feed(12_000, 70, seed=2))
    # Same blocks by name and by id: the window distributions agree.
    assert monitor.history("gini") == names.history("gini")
