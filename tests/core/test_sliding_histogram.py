"""Tests for the sliding-window histogram kernel and its two feeds.

:class:`SlidingHistogram` is the one sliding-window kernel: the streaming
monitor feeds it producer names (interned into the kernel's own id
column) or ranges of a chain's integer id columns.  Window histograms
must be bitwise identical to the batch engine's
``Credits.sliding_histograms`` rows, streaming histories to
``measure_sliding``, and neither may depend on how the feed is chunked.
"""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.attribution import attribute
from repro.chain.pools import bitcoin_pools_2019
from repro.cli import _block_feed
from repro.core.engine import MeasurementEngine
from repro.core.streaming import (
    _OWN_CHUNK_BLOCKS,
    BlockRange,
    SlidingHistogram,
    StreamingMonitor,
)
from repro.errors import MeasurementError
from repro.metrics import shannon_entropy
from tests.conftest import make_tiny_chain


def windows_of(kernel_args, feed, width: int) -> np.ndarray:
    """Every evaluated window histogram of ``feed`` (a list of extend args),
    zero-padded to ``width`` ids.

    A kernel histogram is only as wide as the largest id it holds; the
    padding lines its rows up with the batch engine's ``n_entities``-wide
    rows, and adds no addend to any cell.
    """
    rows = []
    kernel = SlidingHistogram(*kernel_args, on_window=lambda _: rows.append(
        kernel.window_histogram()))
    for args in feed:
        kernel.extend(*args)
    padded = np.zeros((len(rows), width))
    for padded_row, row in zip(padded, rows):
        padded_row[:len(row)] = row
    return padded


class TestNamesAdapter:
    def test_mid_stride_current_and_producers(self):
        """current() and producers_in_window() cover the trailing N blocks
        at any block count, not just at evaluation points."""
        names = ["a", "b", "a", "c", "d", "d", "e", "a", "f"]
        monitor = StreamingMonitor(window_size=6, stride=4, metrics=("entropy",))
        for name in names:
            monitor.push([name])
        assert monitor.blocks_seen == 9
        assert [n for n, _ in monitor.history("entropy")] == [6]
        window = Counter(names[-6:])
        assert monitor.producers_in_window() == len(window)
        expected = shannon_entropy(np.asarray(list(window.values()), dtype=float))
        assert monitor.current("entropy") == pytest.approx(expected, abs=1e-12)

    def test_slot_table_bounded_by_active_producers(self):
        """100k blocks, each a fresh producer, through window 10: slots of
        producers that left the window are recycled."""
        window = 10
        monitor = StreamingMonitor(window_size=window, stride=5, metrics=("gini",))
        for i in range(100_000):
            monitor.push([f"producer-{i}"])
            if i % 997 == 0:
                assert len(monitor._names) <= window
                assert len(monitor._slot_of) <= window
        assert len(monitor._names) <= window
        assert monitor.producers_in_window() == window
        assert monitor.evaluations == (100_000 - window) // 5 + 1
        retained = sum(p.hi - p.lo for p in monitor._kernel._pieces)
        assert retained <= window + 2 * _OWN_CHUNK_BLOCKS

    def test_names_and_ranges_do_not_mix(self):
        chain = make_tiny_chain([["a"], ["b"], ["a"]])
        monitor = StreamingMonitor(window_size=2, stride=1)
        monitor.push(["a"])
        with pytest.raises(MeasurementError, match="not both"):
            monitor.push_range(BlockRange(chain.offsets, chain.producer_ids, 0, 2))


POLICIES = ("per-address", "first-address", "fractional", "pool")


class TestAgainstBatch:
    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("size,step", [(144, 72), (1008, 144)])
    def test_window_histograms_match_sliding_histograms(self, btc_chain, policy, size, step):
        credits = attribute(
            btc_chain, policy,
            registry=bitcoin_pools_2019() if policy == "pool" else None,
        )
        expected = credits.sliding_histograms(size, step)
        columns = (credits.block_offsets, credits.entity_ids)
        feed = [
            (*columns, lo, min(lo + step, credits.n_blocks), credits.weights)
            for lo in range(0, credits.n_blocks, step)
        ]
        got = windows_of((size, step), feed, credits.n_entities)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "chain_name,limit,size,step",
        [("btc", None, 144, 72), ("eth", 400_000, 6000, 3000)],
    )
    def test_cli_feed_full_history_matches_measure_sliding(
        self, request, chain_name, limit, size, step
    ):
        chain = request.getfixturevalue(f"{chain_name}_chain")
        if limit is not None:
            chain = chain.slice_blocks(0, limit)
        monitor = StreamingMonitor(size, step)
        for item in _block_feed(chain, None, step):
            monitor.push_range(item)
        engine = MeasurementEngine.from_chain(chain, workers=1)
        for metric in ("gini", "nakamoto", "entropy"):
            series = engine.measure_sliding(metric, size, step)
            history = monitor.history(metric)
            counts = np.array([count for count, _ in history])
            values = np.array([value for _, value in history])
            assert counts.tobytes() == (series.indices * step + size).tobytes()
            if metric == "entropy":
                # A one-row batch sums p*log(p) over a narrower padded row
                # than the full sweep's batch, so the last bits may differ.
                assert np.max(np.abs(values - series.values)) <= 1e-14
            else:
                assert values.tobytes() == series.values.tobytes()

    def test_non_divisible_window(self, btc_chain):
        """N % M != 0: segments of gcd(N, M) blocks still give every window."""
        size, step, blocks = 10, 3, 2_000
        chain = btc_chain.slice_blocks(0, blocks)
        offsets, ids = chain.offsets, chain.producer_ids
        width = len(chain.producer_names)
        got = windows_of((size, step), [(offsets, ids, 0, blocks)], width)
        starts = range(0, blocks - size + 1, step)
        expected = np.stack([
            np.bincount(ids[offsets[s]:offsets[s + size]], minlength=width).astype(float)
            for s in starts
        ])
        assert got.tobytes() == expected.tobytes()
        monitor = StreamingMonitor(size, step)
        for item in _block_feed(chain, None, step):
            monitor.push_range(item)
        engine = MeasurementEngine.from_chain(chain, workers=1)
        for metric in ("gini", "nakamoto", "entropy"):
            series = engine.measure_sliding(metric, size, step)
            values = np.array([value for _, value in monitor.history(metric)])
            np.testing.assert_allclose(values, series.values, rtol=0, atol=1e-12)

    def test_many_segments_per_window(self, btc_chain):
        """Stride 1 makes every block a segment, so a window sums N/g = 300
        segments; with fractional credits the sum order shows in the bits.
        The segment buffer stays within twice the window's entries."""
        size, step, blocks = 300, 1, 1_500
        credits = attribute(btc_chain.slice_blocks(0, blocks), "fractional")
        expected = credits.sliding_histograms(size, step)
        offsets = credits.block_offsets
        # Entries of a window plus the segment being added, at most.
        live = int(np.max(offsets[size + 1:] - offsets[:-size - 1]))
        rows, capacities = [], []

        def on_window(_):
            rows.append(kernel.window_histogram())
            capacities.append(len(kernel._ids))

        kernel = SlidingHistogram(size, step, on_window=on_window)
        for lo in range(0, blocks, 7):
            kernel.extend(offsets, credits.entity_ids, lo, min(lo + 7, blocks),
                          credits.weights)
        got = np.zeros(expected.shape)
        for padded_row, row in zip(got, rows):
            padded_row[:len(row)] = row
        assert len(rows) == len(expected)
        assert got.tobytes() == expected.tobytes()
        assert max(capacities) <= 2 * live < len(credits.entity_ids)


@st.composite
def tiny_columns(draw):
    n_blocks = draw(st.integers(min_value=1, max_value=80))
    producers = draw(st.lists(
        st.lists(st.sampled_from("abcdefg"), min_size=1, max_size=3, unique=True),
        min_size=n_blocks, max_size=n_blocks,
    ))
    return make_tiny_chain(producers)


class TestChunking:
    @given(
        tiny_columns(),
        st.sampled_from([(4, 2), (6, 3), (6, 4), (10, 3), (5, 5), (1, 1)]),
        st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=40),
    )
    @settings(max_examples=60, deadline=None)
    def test_window_histograms_independent_of_chunking(self, chain, window, cuts):
        size, step = window
        offsets, ids = chain.offsets, chain.producer_ids
        width = len(chain.producer_names)
        whole = windows_of((size, step), [(offsets, ids, 0, chain.n_blocks)], width)
        feed, lo = [], 0
        for cut in cuts:
            if lo >= chain.n_blocks:
                break
            feed.append((offsets, ids, lo, min(lo + cut, chain.n_blocks)))
            lo += cut
        if lo < chain.n_blocks:
            feed.append((offsets, ids, lo, chain.n_blocks))
        chunked = windows_of((size, step), feed, width)
        assert chunked.tobytes() == whole.tobytes()
        if size % step == 0 and size <= chain.n_blocks:
            credits = attribute(chain, "per-address")
            assert whole.tobytes() == credits.sliding_histograms(size, step).tobytes()


class TestSlotRecycling:
    @given(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=3,
                     unique=True),
            min_size=1, max_size=150,
        ),
        st.sampled_from([(4, 2), (6, 4), (10, 3), (8, 8), (3, 1)]),
    )
    @settings(max_examples=60, deadline=None)
    def test_names_feed_matches_range_feed(self, blocks, window):
        """Recycled slots never leak a departed producer into a window:
        pushing names gives the same histories as pushing the id ranges."""
        size, step = window
        producers = [[f"p{i}" for i in block] for block in blocks]
        chain = make_tiny_chain(producers)
        by_name = StreamingMonitor(size, step)
        for block in producers:
            by_name.push(block)
        by_range = StreamingMonitor(size, step)
        by_range.push_range(BlockRange(chain.offsets, chain.producer_ids, 0, chain.n_blocks))
        for metric in ("gini", "nakamoto"):
            assert by_name.history(metric) == by_range.history(metric)
        names_entropy = by_name.history("entropy")
        range_entropy = by_range.history("entropy")
        assert [n for n, _ in names_entropy] == [n for n, _ in range_entropy]
        for (_, a), (_, b) in zip(names_entropy, range_entropy):
            assert a == pytest.approx(b, abs=1e-12)
        assert by_name.producers_in_window() == by_range.producers_in_window()
        assert by_name.current("gini") == by_range.current("gini")
