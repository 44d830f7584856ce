"""Chain integrity validation, quarantine and repair.

Ingested block pages can arrive truncated, duplicated, reordered or
malformed (see :mod:`repro.resilience.faults` for the taxonomy).  This
module turns a suspect pile of raw block rows back into a valid chain:

1. :func:`validate_blocks` detects every issue — height gaps, duplicate
   heights, out-of-range/corrupted heights, timestamp regressions, empty
   coinbase lists — as typed :class:`IntegrityIssue` records.
2. :func:`repair_blocks` quarantines bad rows and repairs per policy:
   ``refetch`` pulls the true row from the source of truth (recovery is
   then byte-identical to a clean ingest), ``interpolate`` synthesizes a
   plausible row from neighbours, ``drop`` simply omits it.
3. The outcome is stamped as a :class:`DataQualityReport` — attached to
   measurement series (``MeasurementSeries.quality``) and surfaced by
   ``/status`` — so no result can silently claim clean data.

Raw rows are :class:`RawBlock` — deliberately unvalidated, unlike
:class:`repro.chain.block.Block`, because holding pre-repair data is the
whole point.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro import obs
from repro.chain.chain import Chain
from repro.chain.specs import ChainSpec
from repro.errors import IntegrityError, ValidationError

#: Issue kinds reported by :func:`validate_blocks`.
ISSUE_KINDS: tuple[str, ...] = (
    "height_gap",
    "duplicate_height",
    "height_out_of_range",
    "timestamp_regression",
    "empty_producers",
)

#: Repair policies accepted by :func:`repair_blocks`.
REPAIR_POLICIES: tuple[str, ...] = ("refetch", "interpolate", "drop")


@dataclass(frozen=True)
class RawBlock:
    """One unvalidated ingested block row (height, timestamp, producers)."""

    height: int
    timestamp: int
    producers: tuple[str, ...]


@dataclass(frozen=True)
class IntegrityIssue:
    """One detected violation, anchored to a height where meaningful."""

    kind: str
    height: int | None
    detail: str

    def __str__(self) -> str:
        at = f" at height {self.height}" if self.height is not None else ""
        return f"{self.kind}{at}: {self.detail}"


@dataclass
class DataQualityReport:
    """What validation found and what repair did about it.

    ``clean`` is True only when nothing was detected — a report stamped
    on a measurement series makes data-quality state part of the result.
    """

    n_blocks: int = 0
    issues: list[IntegrityIssue] = field(default_factory=list)
    quarantined: int = 0
    refetched: int = 0
    interpolated: int = 0
    dropped: int = 0
    deduplicated: int = 0
    reordered: int = 0

    @property
    def clean(self) -> bool:
        """True when validation found nothing to repair."""
        return not self.issues and not self.reordered

    def issue_counts(self) -> dict[str, int]:
        """Number of detected issues per kind."""
        counts: dict[str, int] = {}
        for issue in self.issues:
            counts[issue.kind] = counts.get(issue.kind, 0) + 1
        return counts

    def as_dict(self) -> dict:
        """JSON-ready summary (the shape stamped onto series and /status)."""
        return {
            "n_blocks": self.n_blocks,
            "clean": self.clean,
            "issues": self.issue_counts(),
            "quarantined": self.quarantined,
            "refetched": self.refetched,
            "interpolated": self.interpolated,
            "dropped": self.dropped,
            "deduplicated": self.deduplicated,
            "reordered": self.reordered,
        }


def raw_blocks(chain: Chain, start: int = 0, stop: int | None = None) -> list[RawBlock]:
    """Materialize chain positions ``[start, stop)`` as raw rows."""
    stop = chain.n_blocks if stop is None else min(stop, chain.n_blocks)
    heights, timestamps = chain.heights, chain.timestamps
    offsets, ids, names = chain.offsets, chain.producer_ids, chain.producer_names
    return [
        RawBlock(
            int(heights[i]),
            int(timestamps[i]),
            tuple(names[pid] for pid in ids[offsets[i]:offsets[i + 1]]),
        )
        for i in range(start, stop)
    ]


def validate_blocks(
    blocks: Sequence[RawBlock],
    expected_heights: range | None = None,
) -> list[IntegrityIssue]:
    """Detect every integrity violation in ``blocks``.

    With ``expected_heights`` (the contract of the extract: which heights
    must be present exactly once) gaps and out-of-range heights are
    reported precisely; without it only order-derived issues are visible.
    """
    issues: list[IntegrityIssue] = []
    seen: set[int] = set()
    valid_range = (
        (expected_heights.start, expected_heights.stop)
        if expected_heights is not None
        else None
    )
    for block in blocks:
        if not block.producers or any(not p for p in block.producers):
            issues.append(
                IntegrityIssue(
                    "empty_producers",
                    block.height if block.height > 0 else None,
                    "block has no usable coinbase address",
                )
            )
        height_ok = block.height > 0 and (
            valid_range is None or valid_range[0] <= block.height < valid_range[1]
        )
        if not height_ok:
            issues.append(
                IntegrityIssue(
                    "height_out_of_range",
                    None,
                    f"height {block.height} outside the expected extract",
                )
            )
            continue
        if block.height in seen:
            issues.append(
                IntegrityIssue(
                    "duplicate_height",
                    block.height,
                    "height delivered more than once",
                )
            )
        seen.add(block.height)
    if expected_heights is not None:
        for height in expected_heights:
            if height not in seen:
                issues.append(
                    IntegrityIssue(
                        "height_gap", height, "expected height never delivered"
                    )
                )
    # Timestamp monotonicity is checked in height order over usable rows.
    usable = sorted(
        (b for b in blocks if b.height in seen and b.producers),
        key=lambda b: b.height,
    )
    previous: RawBlock | None = None
    for block in usable:
        if previous is not None and block.height != previous.height:
            if block.timestamp < previous.timestamp:
                issues.append(
                    IntegrityIssue(
                        "timestamp_regression",
                        block.height,
                        f"timestamp {block.timestamp} regresses below "
                        f"{previous.timestamp}",
                    )
                )
        previous = block
    return issues


def repair_blocks(
    blocks: Sequence[RawBlock],
    expected_heights: range,
    *,
    policy: str = "refetch",
    refetch: Callable[[int], RawBlock] | None = None,
) -> tuple[list[RawBlock], DataQualityReport]:
    """Quarantine bad rows and rebuild the expected contiguous extract.

    Returns the repaired rows (sorted by height, one per expected height
    under ``refetch``/``interpolate``; possibly fewer under ``drop``) and
    the :class:`DataQualityReport` describing what happened.

    ``refetch`` must be provided for the refetch policy — it is also used
    to recover rows whose *content* (not just presence) was corrupted.
    ``interpolate`` synthesizes a gap row from its nearest repaired
    neighbour (its producers, a clamped timestamp); ``drop`` omits it.
    """
    if policy not in REPAIR_POLICIES:
        raise ValidationError(
            f"unknown repair policy {policy!r}; expected one of {REPAIR_POLICIES}"
        )
    if policy == "refetch" and refetch is None:
        raise ValidationError("the 'refetch' repair policy needs a refetch callable")
    report = DataQualityReport(n_blocks=len(expected_heights))
    report.issues = validate_blocks(blocks, expected_heights)
    with obs.span(
        "integrity.repair", policy=policy, n_issues=len(report.issues)
    ):
        by_height: dict[int, RawBlock] = {}
        order_heights: list[int] = []
        for block in blocks:
            usable = (
                block.height in expected_heights
                and block.producers
                and all(block.producers)
            )
            if not usable:
                report.quarantined += 1
                continue
            if block.height in by_height:
                report.deduplicated += 1
                continue
            by_height[block.height] = block
            order_heights.append(block.height)
        if order_heights != sorted(order_heights):
            report.reordered += 1

        # A corrupted-in-place timestamp flags itself against its
        # neighbours: a row that regresses below its predecessor or rises
        # above its successor cannot be trusted, so it is recovered like a
        # missing row.  (Both sides of a jump are flagged; under refetch
        # that is merely a second exact read.)
        present = sorted(by_height)
        suspects: set[int] = set()
        for j, height in enumerate(present):
            ts = by_height[height].timestamp
            if j > 0 and ts < by_height[present[j - 1]].timestamp:
                suspects.add(height)
            if j + 1 < len(present) and ts > by_height[present[j + 1]].timestamp:
                suspects.add(height)

        # Two corrupted rows can sit next to each other once the rows
        # between them are missing, and then neither flags the other; so a
        # row is also recovered when it regresses below the repaired row
        # before it.
        repaired: list[RawBlock] = []
        previous: RawBlock | None = None
        for height in expected_heights:
            block = by_height.get(height)
            if (
                block is None
                or height in suspects
                or (previous is not None and block.timestamp < previous.timestamp)
            ):
                block = _recover(height, previous, policy, refetch, report)
                if block is None:
                    continue
            repaired.append(block)
            previous = block
    registry = obs.get_tracer().metrics
    registry.counter("resilience.integrity.issues_total").inc(len(report.issues))
    if not report.clean:
        registry.counter("resilience.integrity.repairs_total").inc()
    return repaired, report


def _recover(
    height: int,
    previous: RawBlock | None,
    policy: str,
    refetch: Callable[[int], RawBlock] | None,
    report: DataQualityReport,
) -> RawBlock | None:
    if policy == "refetch":
        assert refetch is not None
        block = refetch(height)
        report.refetched += 1
        return block
    if policy == "interpolate":
        if previous is None:
            report.dropped += 1
            return None
        report.interpolated += 1
        return RawBlock(height, previous.timestamp, previous.producers)
    report.dropped += 1
    return None


def chain_from_raw_blocks(
    spec: ChainSpec, blocks: Sequence[RawBlock], validate: bool = True
) -> Chain:
    """Assemble validated columnar storage from repaired raw rows.

    Producer names are interned in first-appearance order — the same
    order a clean ingest produces — so a faulted-then-repaired fetch
    yields arrays identical to the clean fetch.  Invalid rows raise
    :class:`~repro.errors.IntegrityError` (repair should have removed
    them).  Pass ``validate=False`` for chains the ``drop`` repair policy
    left with height gaps.
    """
    heights = np.asarray([b.height for b in blocks], dtype=np.int64)
    timestamps = np.asarray([b.timestamp for b in blocks], dtype=np.int64)
    name_to_id: dict[str, int] = {}
    producer_ids: list[int] = []
    offsets = np.zeros(len(blocks) + 1, dtype=np.int64)
    for i, block in enumerate(blocks):
        if not block.producers:
            raise IntegrityError(
                f"block {block.height} reached assembly with no producers"
            )
        for producer in block.producers:
            pid = name_to_id.get(producer)
            if pid is None:
                pid = len(name_to_id)
                name_to_id[producer] = pid
            producer_ids.append(pid)
        offsets[i + 1] = len(producer_ids)
    names = [""] * len(name_to_id)
    for name, pid in name_to_id.items():
        names[pid] = name
    return Chain(
        spec,
        heights,
        timestamps,
        offsets,
        np.asarray(producer_ids, dtype=np.int64),
        names,
        validate=validate,
    )
