"""Streaming decentralization monitoring.

The paper motivates sliding windows with timeliness: discovering abnormal
changes as they happen, not at the end of a calendar interval.  This
module is that deployment story.  A :class:`StreamingMonitor` ingests
blocks, recomputes the metrics every ``stride`` blocks — the sliding
step M — over the trailing ``window_size`` blocks — the window N.  It
only measures: alert rules over its values belong to
:class:`~repro.obs.alerts.AlertManager`, which
:func:`~repro.serve.monitor.run_monitor` evaluates once per window.

Blocks arrive either one at a time as producer names
(:meth:`StreamingMonitor.push`) or as ranges over a chain's integer
columns (:meth:`StreamingMonitor.push_range` with a :class:`BlockRange`).
Both feed one kernel, :class:`SlidingHistogram`, which builds each
window from per-segment histograms exactly the way the batch engine's
``Credits.sliding_histograms`` does, so streaming and batch values agree
bit for bit.

>>> monitor = StreamingMonitor(window_size=4, stride=2, metrics=("nakamoto",))
>>> for producers in (["a"], ["b"], ["a"], ["a"], ["c"], ["a"]):
...     monitor.push(producers)
>>> monitor.history("nakamoto")
[(4, 1.0), (6, 1.0)]
"""

from __future__ import annotations

from collections import deque
from math import gcd
from typing import Callable, NamedTuple, Sequence

import numpy as np

from repro import obs
from repro.errors import MeasurementError
from repro.metrics.base import DistributionBatch, Metric, compute_batch, get_metric

#: Blocks per chunk of the kernel's own id column; a full chunk is left
#: for trimming and a new one started, so no retained row is ever moved.
_OWN_CHUNK_BLOCKS = 4096


class BlockRange(NamedTuple):
    """Blocks ``[start, stop)`` of shared CSR block columns, as one feed item.

    The credits of block ``b`` are rows ``offsets[b]:offsets[b + 1]`` of
    ``ids`` (non-negative integer producer ids) and ``weights``;
    ``weights=None`` means every credit is worth 1.  Consecutive ranges
    over the same column objects cost the kernel an end-pointer advance.
    """

    offsets: np.ndarray
    ids: np.ndarray
    start: int
    stop: int
    weights: np.ndarray | None = None


class _Piece:
    """Column blocks ``[lo, hi)``, holding stream blocks from ``first`` on."""

    __slots__ = ("offsets", "ids", "weights", "lo", "hi", "first")

    def __init__(self, offsets, ids, weights, lo: int, hi: int, first: int) -> None:
        self.offsets = offsets
        self.ids = ids
        self.weights = weights
        self.lo = lo
        self.hi = hi
        self.first = first

    @property
    def last(self) -> int:
        """One past the last stream block held."""
        return self.first + self.hi - self.lo


class SlidingHistogram:
    """Trailing-window credit histograms over CSR block columns.

    The window of ``window_size`` (N) blocks is evaluated every ``stride``
    (M) blocks once full.  Blocks are cut into segments of
    ``g = gcd(N, M)`` blocks; each closed segment becomes one sparse
    ``np.bincount`` histogram, and a window is the in-order sum of its
    last ``N/g`` segments.  That is the construction, and the addition
    order, of ``Credits.sliding_histograms``, so window histograms are
    bitwise identical to the batch engine's rows.  The sparse segments
    sit end to end in one flat buffer, so a window is a single
    ``np.bincount`` over a slice, whatever ``N/g`` is.

    Blocks come from columns the caller owns (:meth:`extend`, one
    end-pointer advance for a range contiguous with the last one) or
    from the kernel's own id column (:meth:`append`, one block at a
    time).  Only the rows of the trailing window are retained.
    ``on_window(block_count)`` is called at every evaluation point, while
    :meth:`window_histogram` and :attr:`end` describe that point.
    Histograms are as wide as the largest id they hold, plus one.
    """

    def __init__(
        self,
        window_size: int,
        stride: int,
        on_window: Callable[[int], None] | None = None,
    ) -> None:
        if window_size <= 0 or stride <= 0:
            raise MeasurementError(
                f"window_size and stride must be positive, got {window_size}/{stride}"
            )
        self.window_size = window_size
        self.stride = stride
        self.segment = gcd(window_size, stride)
        #: Blocks ingested so far.
        self.end = 0
        self._on_window = on_window
        # Closed segments as sparse (id, value) entries, oldest first:
        # buffer slot = entry number - _base, and _starts holds the entry
        # number of each of the last N/g segments.
        self._ids = np.zeros(0, dtype=np.intp)
        self._values = np.zeros(0, dtype=np.float64)
        self._base = 0
        self._entries = 0
        self._starts: deque[int] = deque(maxlen=window_size // self.segment)
        self._pieces: deque[_Piece] = deque()
        self._own: _Piece | None = None

    # -- ingestion ------------------------------------------------------------

    def extend(
        self,
        offsets: np.ndarray,
        ids: np.ndarray,
        start: int,
        stop: int,
        weights: np.ndarray | None = None,
    ) -> None:
        """Ingest blocks ``[start, stop)`` of shared columns (see :class:`BlockRange`)."""
        if not 0 <= start <= stop:
            raise MeasurementError(f"invalid block range [{start}, {stop})")
        if start == stop:
            return
        pieces = self._pieces
        last = pieces[-1] if pieces else None
        if (
            last is not None
            and last.hi == start
            and last.ids is ids
            and last.offsets is offsets
            and last.weights is weights
        ):
            last.hi = stop
        else:
            pieces.append(_Piece(offsets, ids, weights, start, stop, self.end))
            self._own = None
        self._advance(self.end + stop - start)

    def append(self, ids: Sequence[int], weight: float = 1.0) -> None:
        """Ingest one block into the kernel's own id column, each id
        getting ``weight`` credit."""
        own = self._own
        if own is None or own.hi == _OWN_CHUNK_BLOCKS:
            own = self._own = _Piece([0], [], [], 0, 0, self.end)
            self._pieces.append(own)
        own.ids.extend(ids)
        own.weights.extend([weight] * len(ids))
        own.offsets.append(len(own.ids))
        own.hi += 1
        self._advance(self.end + 1)

    def block_ids(self, block: int) -> Sequence[int]:
        """The ids of stream block ``block``, one of the last ``window_size``."""
        for piece in self._pieces:
            if block < piece.last:
                row = piece.lo + block - piece.first
                return piece.ids[piece.offsets[row]:piece.offsets[row + 1]]
        raise MeasurementError(f"block {block} has not been ingested")

    def _advance(self, new_end: int) -> None:
        g = self.segment
        boundary = self.end - self.end % g + g
        if boundary > new_end:
            self.end = new_end
            return
        first_point, stride = self.window_size, self.stride
        while boundary <= new_end:
            self.end = boundary
            self._close_segment(boundary - g, boundary)
            if (
                boundary >= first_point
                and (boundary - first_point) % stride == 0
                and self._on_window is not None
            ):
                self._on_window(boundary)
            boundary += g
        self.end = new_end
        horizon = new_end - self.window_size
        pieces = self._pieces
        while len(pieces) > 1 and pieces[0].last <= horizon:
            pieces.popleft()

    def _close_segment(self, lo: int, hi: int) -> None:
        histogram = self._bincount(lo, hi)
        present = np.flatnonzero(histogram)
        n = len(present)
        slot = self._entries - self._base
        if slot + n > len(self._ids):
            # Out of room: move the retained segments to the front of a
            # buffer twice their size, so each entry moves O(1) times.
            keep = self._starts[0] - self._base if self._starts else slot
            size = 2 * (slot - keep + n)
            ids = np.empty(size, dtype=np.intp)
            values = np.empty(size, dtype=np.float64)
            ids[:slot - keep] = self._ids[keep:slot]
            values[:slot - keep] = self._values[keep:slot]
            self._ids, self._values = ids, values
            self._base += keep
            slot -= keep
        self._ids[slot:slot + n] = present
        self._values[slot:slot + n] = histogram[present]
        self._starts.append(self._entries)
        self._entries += n

    # -- histograms -----------------------------------------------------------

    def _rows(self, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray | None]:
        """The (ids, weights) rows of stream blocks ``[lo, hi)``, in order."""
        ids: list[np.ndarray] = []
        weights: list[np.ndarray | None] = []
        for piece in self._pieces:
            if piece.last <= lo:
                continue
            if piece.first >= hi:
                break
            a = piece.lo + max(lo, piece.first) - piece.first
            b = piece.lo + min(hi, piece.last) - piece.first
            r0, r1 = piece.offsets[a], piece.offsets[b]
            ids.append(np.asarray(piece.ids[r0:r1], dtype=np.intp))
            weights.append(
                None if piece.weights is None
                else np.asarray(piece.weights[r0:r1], dtype=np.float64)
            )
        if all(w is None for w in weights):
            merged_weights = None
        else:
            merged_weights = np.concatenate([
                np.ones(len(i)) if w is None else w for i, w in zip(ids, weights)
            ])
        merged_ids = ids[0] if len(ids) == 1 else np.concatenate(ids or [np.zeros(0, np.intp)])
        return merged_ids, merged_weights

    def _bincount(self, lo: int, hi: int) -> np.ndarray:
        """Credit totals per id over stream blocks ``[lo, hi)``; integer
        counts when no retained row carries a weight."""
        ids, weights = self._rows(lo, hi)
        return np.bincount(ids, weights=weights)

    def window_histogram(self) -> np.ndarray:
        """Per-id credit totals of the window ending at the last closed segment.

        At an evaluation point that is the window being evaluated.
        """
        if not self._starts:
            return np.zeros(0)
        lo = self._starts[0] - self._base
        hi = self._entries - self._base
        return np.bincount(self._ids[lo:hi], weights=self._values[lo:hi])

    def trailing_histogram(self) -> np.ndarray:
        """Per-id credit totals of the last ``window_size`` blocks (or fewer).

        Computed from the retained rows on demand, at any block count.
        """
        histogram = self._bincount(max(self.end - self.window_size, 0), self.end)
        return histogram.astype(np.float64, copy=False)


class StreamingMonitor:
    """Incremental sliding-window measurement.

    A monitor ingests either producer names (:meth:`push`) or ranges of a
    chain's integer id columns (:meth:`push_range`), not both.  Names are
    interned into slots of the kernel's own id column, which is the only
    record of the trailing blocks: the slots of the block leaving the
    window are read back from it, and a slot is recycled as soon as its
    producer has left the window, so memory stays bounded by the
    producers active in the window, not by those ever seen.
    """

    def __init__(
        self,
        window_size: int,
        stride: int | None = None,
        metrics: Sequence[str | Metric] = ("gini", "entropy", "nakamoto"),
    ) -> None:
        if window_size <= 0:
            raise MeasurementError(f"window_size must be positive, got {window_size}")
        if stride is None:
            stride = max(window_size // 2, 1)
        if stride <= 0:
            raise MeasurementError(f"stride must be positive, got {stride}")
        self.window_size = window_size
        self.stride = stride
        self._metrics = [
            get_metric(metric) if isinstance(metric, str) else metric
            for metric in metrics
        ]
        self._kernel = SlidingHistogram(window_size, stride, on_window=self._evaluate)
        self._history: dict[str, list[tuple[int, float]]] = {
            metric.name: [] for metric in self._metrics
        }
        #: "names" or "ranges", fixed by the first block ingested.
        self._source: str | None = None
        # Names adapter: producer name -> slot in the kernel's id column.
        self._slot_of: dict[str, int] = {}
        self._names: list[str] = []
        #: Per-slot credit count over the trailing window.
        self._credits: list[int] = []
        self._free: list[int] = []

    # -- ingestion --------------------------------------------------------------

    def _bind(self, source: str) -> None:
        if self._source is None:
            self._source = source
        elif self._source != source:
            raise MeasurementError(
                "a monitor ingests producer names or column ranges, not both"
            )

    def push(self, producers: Sequence[str], fractional: bool = False) -> None:
        """Ingest one block.

        ``producers`` are the block's payout addresses (usually one).
        With ``fractional`` each address gets ``1/k`` credit, otherwise
        each gets a full credit (the paper's per-address policy).
        """
        if not producers:
            raise MeasurementError("a block needs at least one producer")
        if self._source != "names":
            self._bind("names")
        kernel = self._kernel
        if kernel.end >= self.window_size:
            # The oldest block leaves before the new one is interned, so a
            # freed slot can be reused at once and the table never holds
            # more than window_size x producers-per-block slots.
            self._release(kernel.block_ids(kernel.end - self.window_size))
        slot_of, credits = self._slot_of, self._credits
        slots = []
        for name in producers:
            slot = slot_of.get(name)
            if slot is None:
                slot = self._intern(name)
            credits[slot] += 1
            slots.append(slot)
        kernel.append(slots, 1.0 / len(slots) if fractional else 1.0)

    def push_range(self, blocks: BlockRange) -> None:
        """Ingest a range of blocks."""
        if self._source != "ranges":
            self._bind("ranges")
        self._kernel.extend(*blocks)

    def push_many(self, blocks: Sequence[Sequence[str]]) -> None:
        """Ingest a batch of blocks, one :meth:`push` each."""
        for producers in blocks:
            self.push(producers)

    def _intern(self, name: str) -> int:
        if self._free:
            slot = self._free.pop()
            self._names[slot] = name
        else:
            slot = len(self._names)
            self._names.append(name)
            self._credits.append(0)
        self._slot_of[name] = slot
        return slot

    def _release(self, slots: Sequence[int]) -> None:
        credits = self._credits
        for slot in slots:
            credits[slot] -= 1
            if credits[slot] == 0:
                del self._slot_of[self._names[slot]]
                self._free.append(slot)

    def _evaluate(self, block_count: int) -> None:
        # One-row batch so every monitored metric shares a single sort of
        # the window's distribution.
        with obs.span("streaming.evaluate", block_count=block_count):
            window = self._kernel.window_histogram()
            batch = DistributionBatch(window[window > 0][np.newaxis, :])
            for metric in self._metrics:
                value = float(compute_batch(metric, batch)[0])
                self._history[metric.name].append((block_count, value))
        obs.counter("streaming.evaluations")

    # -- inspection -----------------------------------------------------------------

    @property
    def blocks_seen(self) -> int:
        """Total blocks pushed so far."""
        return self._kernel.end

    @property
    def metric_names(self) -> tuple[str, ...]:
        """Names of the monitored metrics, in registration order."""
        return tuple(self._history)

    @property
    def evaluations(self) -> int:
        """How many window evaluations have run so far."""
        return len(next(iter(self._history.values()), ()))

    def evaluations_since(self, index: int) -> list[tuple[int, dict[str, float]]]:
        """``(block_count, {metric: value})`` of evaluations ``index`` onwards."""
        first = next(iter(self._history.values()), [])
        return [
            (first[i][0], {name: history[i][1] for name, history in self._history.items()})
            for i in range(index, len(first))
        ]

    def latest(self) -> dict[str, float]:
        """Most recent value per monitored metric (empty before 1st window)."""
        return {
            name: history[-1][1]
            for name, history in self._history.items()
            if history
        }

    def current(self, metric: str) -> float:
        """Compute ``metric`` over the trailing window immediately."""
        if self._kernel.end == 0:
            raise MeasurementError("no blocks in the window yet")
        resolved = get_metric(metric)
        window = self._kernel.trailing_histogram()
        return float(resolved.compute(window[window > 0]))

    def history(self, metric: str) -> list[tuple[int, float]]:
        """(block_count, value) pairs of all evaluations for ``metric``."""
        try:
            return list(self._history[metric])
        except KeyError:
            raise MeasurementError(f"metric {metric!r} is not monitored") from None

    def producers_in_window(self) -> int:
        """Distinct producers currently in the window."""
        if self._source == "names":
            return len(self._slot_of)
        return int(np.count_nonzero(self._kernel.trailing_histogram()))
