"""Tests for the trailing-window histogram of the streaming monitor.

The per-block rolling histogram was replaced by
:class:`~repro.core.streaming.SlidingHistogram`; its cases run here
against the new kernel.  Windows are rebuilt from retained rows, never by
subtraction, so removal is exact for fractional weights too.
"""

from collections import Counter

import numpy as np
import pytest

from repro.core.streaming import SlidingHistogram, StreamingMonitor
from repro.errors import MeasurementError


def trailing(kernel: SlidingHistogram) -> dict[int, float]:
    histogram = kernel.trailing_histogram()
    return {int(i): float(histogram[i]) for i in np.flatnonzero(histogram)}


class TestRollingHistogram:
    """Trailing-window cases first written for the per-block rolling
    histogram, run against the kernel that replaced it: blocks appended
    one at a time to its own id column, or pushed by producer name."""

    def test_counts_before_capacity(self):
        kernel = SlidingHistogram(10, 5)
        for block in ([0], [1], [0], [2]):
            kernel.append(block)
        assert kernel.end == 4
        assert trailing(kernel) == {0: 2.0, 1: 1.0, 2: 1.0}

    def test_eviction_removes_oldest_block(self):
        kernel = SlidingHistogram(2, 1)
        for block in ([0], [1], [2]):
            kernel.append(block)
        assert kernel.trailing_histogram().tolist() == [0.0, 1.0, 1.0]

    def test_exact_zero_removal_with_fractional_weights(self):
        """A fractional block leaves the window without a float residue:
        windows are rebuilt from rows, never by subtraction."""
        kernel = SlidingHistogram(1, 1)
        kernel.append([0, 1, 2], 1.0 / 3.0)
        kernel.append([3])
        assert trailing(kernel) == {3: 1.0}
        monitor = StreamingMonitor(window_size=1, stride=1, metrics=("gini",))
        monitor.push(["a", "b", "c"], fractional=True)
        monitor.push(["d"])
        assert monitor.producers_in_window() == 1
        assert monitor.current("gini") == 0.0

    def test_multi_producer_blocks(self):
        kernel = SlidingHistogram(3, 1)
        kernel.append([0, 1])
        kernel.append([0])
        assert trailing(kernel) == {0: 2.0, 1: 1.0}

    def test_slot_table_growth(self):
        monitor = StreamingMonitor(window_size=100, stride=50, metrics=("gini",))
        for i in range(50):
            monitor.push([f"p{i}"])
        assert monitor.producers_in_window() == 50
        assert monitor.current("gini") == 0.0

    def test_reference_equivalence_random_feed(self):
        rng = np.random.default_rng(0)
        blocks = [
            [int(p) for p in rng.choice(7, size=int(rng.integers(1, 4)), replace=False)]
            for _ in range(300)
        ]
        kernel = SlidingHistogram(25, 10)
        for block in blocks:
            kernel.append(block)
        reference = Counter(p for block in blocks[-25:] for p in block)
        assert trailing(kernel) == {p: float(n) for p, n in reference.items()}

    def test_invalid_input_rejected(self):
        with pytest.raises(MeasurementError):
            SlidingHistogram(0, 1)
        with pytest.raises(MeasurementError):
            SlidingHistogram(4, 0)
        with pytest.raises(MeasurementError):
            StreamingMonitor(window_size=4).push([])
        with pytest.raises(MeasurementError):
            SlidingHistogram(4, 2).extend(np.array([0, 1]), np.array([0]), 1, 0)
