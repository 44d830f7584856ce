"""run_monitor records the same run however its feed is chunked.

A feed item is one block's names or a :class:`BlockRange`.  Progress
gauges and the push timing are recorded once per item, but every window
evaluation inside an item must reach history, ``/status`` and the alert
engine exactly as if its blocks had been pushed one at a time.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.streaming import BlockRange
from repro.obs.alerts import AlertRule, AlertSink
from repro.obs.timeseries import TimeSeriesStore
from repro.serve import monitor as monitor_module
from repro.serve import run_monitor
from tests.conftest import make_tiny_chain

EVALUATION_SERIES = ("monitor.latest.", "monitor.metric.")


class RecordingStore(TimeSeriesStore):
    """Keeps every per-evaluation point, in order, besides storing it."""

    points: list = []

    def record(self, name, value, ts=None, kind="value"):
        if name.startswith(EVALUATION_SERIES):
            self.points.append((name, float(value)))
        super().record(name, value, ts=ts, kind=kind)

    def recorder(self, name, kind="value"):
        inner = super().recorder(name, kind=kind)
        if not name.startswith(EVALUATION_SERIES):
            return inner

        def record(value):
            self.points.append((name, float(value)))
            inner(value)

        return record


class ListSink(AlertSink):
    def __init__(self):
        self.events = []

    def emit(self, event):
        self.events.append((event.rule, event.state, event.value))


@pytest.fixture(autouse=True)
def clean_registry(monkeypatch):
    monkeypatch.setattr(monitor_module, "TimeSeriesStore", RecordingStore)
    obs.get_tracer().metrics.reset()
    yield
    obs.get_tracer().metrics.reset()


def replay(chain, items, size, step):
    RecordingStore.points = []
    sink = ListSink()
    lines = []
    run = run_monitor(
        items, size, step,
        chain="tiny",
        alert_rules=[
            AlertRule("nakamoto-below-3", metric="nakamoto", below=3),
            AlertRule("gini-above-0.2", metric="gini", above=0.2),
            AlertRule("lag-high", metric="lag_blocks", above=20),
        ],
        total_blocks=chain.n_blocks,
        print_fn=lines.append,
        alert_sinks=[sink],
    )
    # Event lines less their wall-clock prefix: state, rule, value, block.
    event_lines = [line.split(" ", 1)[1] for line in lines]
    return run, RecordingStore.points, sink.events, event_lines


def ranges(chain, sizes):
    lo = 0
    for size in sizes:
        if lo >= chain.n_blocks:
            return
        yield BlockRange(chain.offsets, chain.producer_ids, lo,
                         min(lo + size, chain.n_blocks))
        lo += size
    if lo < chain.n_blocks:
        yield BlockRange(chain.offsets, chain.producer_ids, lo, chain.n_blocks)


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from([(10, 5), (10, 3), (8, 8)]),
    st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=30),
)
@settings(max_examples=25, deadline=None)
def test_history_alerts_and_run_independent_of_chunking(seed, window, cuts):
    size, step = window
    rng = np.random.default_rng(seed)
    names = ["a", "b", "c", "d", "e"]
    producers = [
        list(rng.choice(names, size=int(rng.integers(1, 3)), replace=False,
                        p=[0.5, 0.2, 0.1, 0.1, 0.1]))
        for _ in range(int(rng.integers(size, 120)))
    ]
    chain = make_tiny_chain(producers)
    n = chain.n_blocks
    one_block = replay(chain, ranges(chain, [1] * n), size, step)
    assert one_block[0].blocks == n
    assert one_block[0].evaluations == (n - size) // step + 1
    for sizes in ([step] * n, [n], cuts):
        assert replay(chain, ranges(chain, sizes), size, step) == one_block
