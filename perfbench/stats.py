"""Order statistics and the open-loop request generator.

Kept free of any import from the program under test, so the tests in
``test_perfbench.py`` exercise them without the package on the path.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

#: Percentiles tried, highest first, when picking the tail percentile.
TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def nearest_rank(values: Sequence[float], p: float) -> float:
    """The nearest-rank ``p``-th percentile: the smallest sample with at
    least ``p`` percent of the samples at or below it."""
    if not values:
        raise ValueError("no samples")
    if not 0 < p <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def tail_percentile(
    values: Sequence[float], min_beyond: int = 10
) -> tuple[float, float] | None:
    """``(p, value)`` for the highest candidate percentile that leaves at
    least ``min_beyond`` samples strictly above its rank, or ``None`` when
    even the median does not."""
    n = len(values)
    for p in TAIL_CANDIDATES:
        rank = max(1, math.ceil(p / 100.0 * n))
        if n - rank >= min_beyond:
            return p, nearest_rank(values, p)
    return None


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


@dataclass(frozen=True)
class Sample:
    """One open-loop request: when it was due, sent and answered."""

    due: float
    sent: float
    done: float

    @property
    def latency(self) -> float:
        """Response time counted from when the request was due, so a stall
        also charges the requests queued behind it."""
        return self.done - self.due


def due_times(start: float, rate: float, duration: float, lanes: int) -> list[list[float]]:
    """Per-lane due times for an open loop of ``rate`` requests/s over
    ``duration`` seconds, dealt round-robin over ``lanes`` connections."""
    if rate <= 0 or duration <= 0 or lanes < 1:
        raise ValueError("rate, duration and lanes must be positive")
    count = int(rate * duration)
    lanes_due: list[list[float]] = [[] for _ in range(lanes)]
    for i in range(count):
        lanes_due[i % lanes].append(start + i / rate)
    return lanes_due


def drive_lane(
    due: Sequence[float],
    request: Callable[[int], object],
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> list[Sample]:
    """Send ``request(i)`` at each due time on one connection.

    A lane has one request in flight at a time, like a keep-alive
    connection: a request whose predecessor is still running waits, and
    that wait counts in its latency.
    """
    samples: list[Sample] = []
    for i, when in enumerate(due):
        now = clock()
        if now < when:
            sleep(when - now)
        sent = clock()
        request(i)
        samples.append(Sample(when, sent, clock()))
    return samples


def generator_lateness(samples: Sequence[Sample]) -> list[float]:
    """How late the generator itself sent each request: the time past the
    later of its due time and the end of the lane's previous request.
    Waiting for a busy connection is the server's doing and is excluded."""
    late = []
    previous_done = -math.inf
    for sample in samples:
        late.append(max(0.0, sample.sent - max(sample.due, previous_done)))
        previous_done = sample.done
    return late
