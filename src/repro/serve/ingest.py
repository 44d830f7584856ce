"""Bounded backpressure queue between a block feed and the monitor.

The streaming monitor used to consume its feed inline: a bursty producer
ran as fast as the consumer, and a slow consumer silently stalled the
feed.  :class:`IngestQueue` is the explicit handoff — a bounded buffer
whose depth **never** exceeds ``maxsize`` (property-tested over random
burst schedules in ``tests/serve/test_ingest_queue.py``).  A full queue
makes the producer wait for space: classic backpressure, so nothing is
ever dropped and the feed slows to the consumer's pace.

Depth, peak depth and enqueue totals land on the metrics registry
(``monitor.ingest.*``) so ``/metrics`` scrapes, the ``/status`` ``ingest``
section, ``repro top`` and SLOs over the recorded history all see queue
pressure; :func:`repro.serve.monitor.run_monitor` wires one in with
``--ingest-queue N``.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Callable, Iterator

from repro.errors import ValidationError
from repro.obs.metrics import MetricsRegistry


class IngestQueue:
    """A bounded, closable FIFO handoff that blocks its producer when full.

    ``put`` never grows the buffer past ``maxsize``; ``get`` blocks until
    an item arrives or the queue is closed and drained.  Iterating the
    queue yields items until that drain point — the consumer side of
    :func:`~repro.serve.monitor.run_monitor`'s ingest loop.
    """

    def __init__(
        self,
        maxsize: int,
        registry: MetricsRegistry | None = None,
        should_abort: Callable[[], bool] | None = None,
    ) -> None:
        if maxsize < 1:
            raise ValidationError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self._items: deque = deque()
        self._cond = threading.Condition()
        self._closed = False
        self.enqueued_total = 0
        self.consumed_total = 0
        self.peak_depth = 0
        self._registry = registry
        #: Polled while a put waits, so a stopping monitor can
        #: unwedge a blocked producer without closing the queue first.
        self._should_abort = should_abort or (lambda: False)

    def put(self, item: object, poll: float = 0.05) -> bool:
        """Offer one item, waiting for space; False if closed or aborted.

        While the queue is full the call waits, checking the abort hook
        every ``poll`` seconds.
        """
        with self._cond:
            if self._closed:
                return False
            while len(self._items) >= self.maxsize:
                self._cond.wait(poll)
                if self._closed or self._should_abort():
                    return False
            self._items.append(item)
            self.enqueued_total += 1
            self._observe_depth()
            if self._registry is not None:
                self._registry.counter(
                    "monitor.ingest.enqueued_total",
                    help="Blocks accepted into the ingest queue.",
                ).inc()
            self._cond.notify()
            return True

    def get(self, poll: float = 0.05) -> object:
        """Take the next item; raises StopIteration once closed and empty."""
        with self._cond:
            while not self._items:
                if self._closed:
                    raise StopIteration
                self._cond.wait(poll)
                if self._should_abort() and not self._items:
                    raise StopIteration
            item = self._items.popleft()
            self.consumed_total += 1
            self._observe_depth()
            self._cond.notify()
            return item

    def close(self) -> None:
        """No more puts; consumers drain what is buffered, then stop."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    @property
    def closed(self) -> bool:
        with self._cond:
            return self._closed

    def depth(self) -> int:
        """Current number of buffered items (always <= ``maxsize``)."""
        with self._cond:
            return len(self._items)

    def __iter__(self) -> Iterator:
        return self

    def __next__(self) -> object:
        return self.get()

    def _observe_depth(self) -> None:
        depth = len(self._items)
        if depth > self.peak_depth:
            self.peak_depth = depth
        if self._registry is not None:
            self._registry.gauge(
                "monitor.ingest.queue_depth",
                help="Blocks buffered between the feed and the monitor.",
            ).set(depth)

    def stats(self) -> dict:
        """JSON-ready view for the ``/status`` ``ingest`` section."""
        with self._cond:
            return {
                "maxsize": self.maxsize,
                "depth": len(self._items),
                "peak_depth": self.peak_depth,
                "enqueued_total": self.enqueued_total,
                "consumed_total": self.consumed_total,
                "closed": self._closed,
            }
