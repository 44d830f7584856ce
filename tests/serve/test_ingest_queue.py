"""Tests for the bounded backpressure ingest queue.

The acceptance property: **queue depth never exceeds the configured
bound** over random burst schedules — plus item conservation (every
offered block is consumed or still buffered; nothing vanishes, nothing
is duplicated, and FIFO order holds).
"""

import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ValidationError
from repro.obs.metrics import MetricsRegistry
from repro.serve.ingest import IngestQueue

#: A burst schedule: rounds of (puts, gets) arrivals — gets are clamped
#: to what is actually buffered, so schedules never deadlock.
burst_schedules = st.lists(
    st.tuples(st.integers(0, 12), st.integers(0, 12)),
    min_size=1,
    max_size=20,
)


class TestValidation:
    def test_rejects_non_positive_maxsize(self):
        with pytest.raises(ValidationError):
            IngestQueue(0)


class TestBlockPolicy:
    def test_producer_waits_for_consumer(self):
        queue = IngestQueue(1)
        queue.put("a")
        produced = threading.Event()

        def producer():
            queue.put("b")  # blocks until the consumer drains "a"
            produced.set()

        thread = threading.Thread(target=producer)
        thread.start()
        assert not produced.wait(0.05)  # still parked: queue is full
        assert queue.get() == "a"
        assert produced.wait(5.0)
        thread.join(timeout=5.0)
        assert queue.get() == "b"

    def test_abort_hook_unwedges_a_blocked_producer(self):
        stop = threading.Event()
        queue = IngestQueue(1, should_abort=stop.is_set)
        queue.put("a")
        outcomes = []
        thread = threading.Thread(
            target=lambda: outcomes.append(queue.put("b", poll=0.01))
        )
        thread.start()
        stop.set()
        thread.join(timeout=5.0)
        assert outcomes == [False]


class TestCloseAndIteration:
    def test_iteration_drains_then_stops(self):
        queue = IngestQueue(8)
        for item in ("a", "b", "c"):
            queue.put(item)
        queue.close()
        assert list(queue) == ["a", "b", "c"]
        assert queue.closed

    def test_put_after_close_is_refused(self):
        queue = IngestQueue(4)
        queue.close()
        assert not queue.put("late")
        assert queue.depth() == 0

    def test_close_wakes_a_blocked_consumer(self):
        queue = IngestQueue(4)
        done = threading.Event()

        def consumer():
            for _ in queue:
                pass
            done.set()

        thread = threading.Thread(target=consumer)
        thread.start()
        queue.close()
        assert done.wait(5.0)
        thread.join(timeout=5.0)


class TestMetrics:
    def test_depth_and_totals_reach_the_registry(self):
        registry = MetricsRegistry()
        queue = IngestQueue(2, registry=registry)
        queue.put("a")
        queue.put("b")
        snap = registry.snapshot()
        assert snap["gauges"]["monitor.ingest.queue_depth"] == 2.0
        assert snap["counters"]["monitor.ingest.enqueued_total"] == 2
        queue.get()
        snap = registry.snapshot()
        assert snap["gauges"]["monitor.ingest.queue_depth"] == 1.0


class TestBurstScheduleProperties:
    """The acceptance property: depth <= bound, items conserved, FIFO."""

    @given(maxsize=st.integers(1, 6), schedule=burst_schedules)
    @settings(max_examples=80, deadline=None)
    def test_depth_never_exceeds_bound_and_items_are_conserved(
        self, maxsize, schedule
    ):
        # A put on a full queue waits for a consumer; this single-threaded
        # harness skips that put instead of parking (the threaded test
        # below covers real blocking).
        queue = IngestQueue(maxsize)
        offered = 0
        consumed = []
        next_item = 0
        for puts, gets in schedule:
            for _ in range(puts):
                if queue.depth() >= maxsize:
                    continue  # a real producer would park here
                assert queue.put(next_item)
                offered += 1
                next_item += 1
                assert queue.depth() <= maxsize
                assert queue.peak_depth <= maxsize
            for _ in range(gets):
                if queue.depth() == 0:
                    break
                consumed.append(queue.get())
                assert queue.depth() <= maxsize
        # Conservation: every offered item was consumed or is still
        # buffered — no loss, no duplication.
        assert queue.enqueued_total == offered
        assert queue.consumed_total == len(consumed)
        assert queue.enqueued_total == queue.consumed_total + queue.depth()
        assert consumed == list(range(len(consumed)))  # FIFO, no duplicates

    @given(maxsize=st.integers(1, 4), n_items=st.integers(1, 60))
    @settings(max_examples=25, deadline=None)
    def test_threaded_producer_consumer_respects_the_bound(
        self, maxsize, n_items
    ):
        queue = IngestQueue(maxsize)
        consumed = []

        def consumer():
            for item in queue:
                consumed.append(item)

        thread = threading.Thread(target=consumer)
        thread.start()
        accepted = 0
        for i in range(n_items):
            if queue.put(i, poll=0.001):
                accepted += 1
        queue.close()
        thread.join(timeout=30.0)
        assert not thread.is_alive()
        assert queue.peak_depth <= maxsize
        # Backpressure never drops: everything offered arrives, in order.
        assert accepted == n_items
        assert consumed == list(range(n_items))
