"""Module-level worker functions executed inside :class:`WorkerPool` workers.

Every function here runs in a worker process: it must be picklable (hence
module-level), read its large inputs from :func:`repro.parallel.pool.
worker_payload`, and return plain numpy arrays / tuples that the
coordinator merges **in shard order**.  None of them may mutate the
payload — under the ``fork`` start method it is shared copy-on-write with
the coordinator and the other workers.

The shard functions are deliberately thin wrappers around the exact
numpy expressions the serial code paths use, restricted to a contiguous
slice; byte-identity of the merged result then follows from the slicing
argument documented at each call site (see ``docs/PARALLELISM.md``).
"""

from __future__ import annotations

import time

import numpy as np

from repro.parallel import pool as _pool

# -- engine: per-window distributions ------------------------------------------


def distribution_shard(pairs: list[tuple[int, int]]) -> list[np.ndarray]:
    """Distributions for a shard of credit-row ranges.

    Payload: a :class:`~repro.chain.attribution.Credits`.  Each ``(lo, hi)``
    pair is one window's credit-row range; the exact same
    ``Credits.distribution`` call the serial sweep makes runs here, so each
    returned array is bitwise equal to its serial counterpart.
    """
    credits = _pool.worker_payload()
    return [credits.distribution(lo, hi) for lo, hi in pairs]


# -- credits: segment partial histograms ---------------------------------------


def segment_histogram_shard(step: int, seg_lo: int, seg_hi: int) -> np.ndarray:
    """Per-segment entity histograms for segments ``[seg_lo, seg_hi)``.

    Payload: a :class:`~repro.chain.attribution.Credits`.  Mirrors the
    dense ``np.bincount`` in ``Credits.segment_histograms`` over just the
    credit rows of this segment range.  Because every histogram cell
    belongs to exactly one segment — hence one shard — and rows keep their
    block order inside the shard, each cell accumulates the same addends
    in the same order as the serial full-range bincount: the concatenated
    shard matrices are bitwise equal to the serial matrix.
    """
    credits = _pool.worker_payload()
    n_entities = credits.n_entities
    row_lo = int(credits.block_offsets[seg_lo * step])
    row_hi = int(credits.block_offsets[seg_hi * step])
    segment_of = credits.block_positions[row_lo:row_hi] // step - seg_lo
    keys = segment_of * n_entities + credits.entity_ids[row_lo:row_hi]
    return np.bincount(
        keys,
        weights=credits.weights[row_lo:row_hi],
        minlength=(seg_hi - seg_lo) * n_entities,
    ).reshape(seg_hi - seg_lo, n_entities)


# -- attribution: per-policy block-range shards --------------------------------


def attribution_shard(
    policy: str, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Credit arrays for block positions ``[lo, hi)`` under ``policy``.

    Payload: ``(chain, remap)`` where ``remap`` is the pool-policy
    producer-to-entity id table built on the coordinator (``None`` for the
    other policies — entity name spaces must be constructed sequentially
    to preserve first-appearance ids, so that step never shards).

    Returns ``(entity_ids, weights, block_positions, timestamps)`` for the
    shard's credit rows.  Every array is the restriction of the serial
    whole-chain expression to this block range — ``np.repeat`` over a
    sliced ``counts`` equals the slice of ``np.repeat`` over the full
    ``counts`` — so concatenating shards in order is bitwise equal to the
    serial arrays.
    """
    chain, remap = _pool.worker_payload()
    counts = chain.producer_counts()[lo:hi]
    if policy in ("per-address", "fractional"):
        row_lo = int(chain.offsets[lo])
        row_hi = int(chain.offsets[hi])
        entity_ids = chain.producer_ids[row_lo:row_hi].copy()
        if policy == "per-address":
            weights = np.ones(row_hi - row_lo, dtype=np.float64)
        else:
            weights = np.repeat(1.0 / counts.astype(np.float64), counts)
        block_positions = np.repeat(np.arange(lo, hi, dtype=np.int64), counts)
        timestamps = np.repeat(chain.timestamps[lo:hi], counts)
        return entity_ids, weights, block_positions, timestamps
    # first-address / pool: one credit per block.
    first_ids = chain.producer_ids[chain.offsets[lo:hi]]
    entity_ids = remap[first_ids] if remap is not None else first_ids.copy()
    return (
        entity_ids,
        np.ones(hi - lo, dtype=np.float64),
        np.arange(lo, hi, dtype=np.int64),
        chain.timestamps[lo:hi].copy(),
    )


# -- sql: partial aggregates over row partitions -------------------------------


def sql_partial_aggregate(lo: int, hi: int, funcs: tuple) -> dict:
    """Partition-local group-by partials over rows ``[lo, hi)``.

    Payload: ``(key_arrays, agg_arrays)`` — the already-evaluated GROUP BY
    key columns and aggregate argument columns (``None`` for ``COUNT(*)``),
    full-length; the worker scans only its slice (the partitioned columnar
    scan).  ``funcs`` holds one aggregate function name per entry of
    ``agg_arrays`` (``COUNT``, ``SUM``, ``AVG``, ``MIN`` or ``MAX``).

    Returns the partition's group keys in local first-appearance order
    (one array per key column) plus mergeable partial states per
    aggregate; the coordinator's in-order merge reconstructs the serial
    group numbering (see ``_parallel_aggregation`` in
    :mod:`repro.sql.executor`).
    """
    from repro.table.aggregates import grouped_aggregate
    from repro.table.grouping import factorize

    key_arrays, agg_arrays = _pool.worker_payload()
    scan_start = time.perf_counter()
    local_keys = [a[lo:hi] for a in key_arrays]
    local_args = [None if a is None else a[lo:hi] for a in agg_arrays]
    scan_seconds = time.perf_counter() - scan_start
    agg_start = time.perf_counter()
    group_ids, first = factorize(local_keys)
    n_groups = len(first)
    partials: list = []
    for func, values in zip(funcs, local_args):
        if values is None:  # COUNT(*)
            partials.append(np.bincount(group_ids, minlength=n_groups).astype(np.int64))
        elif func == "COUNT":
            rows = np.flatnonzero(~_null_mask(values))
            partials.append(
                np.bincount(group_ids[rows], minlength=n_groups).astype(np.int64)
            )
        elif func == "SUM":
            partials.append(
                np.bincount(
                    group_ids,
                    weights=values.astype(np.float64),
                    minlength=n_groups,
                )
            )
        elif func == "AVG":
            sums = np.bincount(
                group_ids, weights=values.astype(np.float64), minlength=n_groups
            )
            counts = np.bincount(group_ids, minlength=n_groups).astype(np.int64)
            partials.append((sums, counts))
        elif func in ("MIN", "MAX"):
            partials.append(
                grouped_aggregate(values, group_ids, n_groups, func.lower())
            )
        else:  # pragma: no cover - guarded by the coordinator's eligibility check
            raise ValueError(f"aggregate {func!r} has no mergeable partial")
    return {
        "keys": [keys[first] for keys in local_keys],
        "partials": partials,
        "rows": hi - lo,
        "scan_seconds": scan_seconds,
        "agg_seconds": time.perf_counter() - agg_start,
    }


def _null_mask(values: np.ndarray) -> np.ndarray:
    """SQL-NULL mask matching the executor's ``_is_null`` for arrays."""
    if values.dtype == object:
        return np.asarray([v is None for v in values], dtype=bool)
    if np.issubdtype(values.dtype, np.floating):
        return np.isnan(values)
    return np.zeros(values.shape[0], dtype=bool)


# -- fork-safety probe ---------------------------------------------------------


def worker_probe() -> dict:
    """Report the worker's inherited-state surface (used by fork-safety tests).

    ``tracing_enabled`` is True only while the task runs under a per-task
    child tracer (coordinator tracing on → context propagated); the
    ``tracer_spans`` count covers *recorded* spans, which must be zero
    either way — a worker never inherits the coordinator's history, and a
    child tracer starts fresh for every task.
    """
    import os
    import threading

    from repro import obs

    tracer = obs.get_tracer()
    return {
        "in_worker": _pool.in_worker(),
        "tracing_enabled": obs.tracing_enabled(),
        "tracer_spans": len(tracer.spans),
        "trace_id": tracer.trace_id if obs.tracing_enabled() else None,
        "thread_count": threading.active_count(),
        "pid": os.getpid(),
    }
