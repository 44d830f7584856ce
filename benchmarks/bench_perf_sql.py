"""Performance — cost-based SQL optimizer: index scans vs full scans.

Builds a 200k-row synthetic block table and times the same selective
equality query through an indexed engine and through an ``optimizer=False``
engine.  The headline test asserts the acceptance gate from the optimizer
PR: the indexed point lookup must be at least 5x faster end-to-end than
the full scan, with byte-identical results.  ``test_perf_sql_join_eth``
gates the equi-join pair kernel at >=10x over a build-dict-and-probe-loop
join on the full ETH year.  ``make bench-perf`` records these timings in
``BENCH_pipeline.json``.
"""

import time

import numpy as np
import pytest

from repro.sql import QueryEngine
from repro.sql.executor import join_pairs
from repro.table import Table

#: Acceptance gate: indexed equality lookup vs full scan, end-to-end.
MIN_SPEEDUP = 5.0

#: Gate: the join pair kernel vs a dict join, on the same ETH join.
MIN_JOIN_SPEEDUP = 10.0
#: Block heights on the probe side of the ETH join.
JOIN_SPAN = 500

N_ROWS = 200_000
POINT_SQL = "SELECT height, producer FROM blocks WHERE producer = 'p123'"
RANGE_SQL = "SELECT height, reward FROM blocks WHERE height BETWEEN 1000 AND 1999"


@pytest.fixture(scope="module")
def big_table() -> Table:
    return Table(
        {
            "height": np.arange(N_ROWS),
            "producer": [f"p{i % 997}" for i in range(N_ROWS)],
            "reward": np.arange(N_ROWS, dtype=float) % 13,
        }
    )


@pytest.fixture(scope="module")
def indexed_engine(big_table) -> QueryEngine:
    engine = QueryEngine({"blocks": big_table})
    engine.create_index("blocks", "producer", "hash")
    engine.create_index("blocks", "height", "sorted")
    engine.execute("ANALYZE")
    return engine


@pytest.fixture(scope="module")
def full_scan_engine(big_table) -> QueryEngine:
    return QueryEngine({"blocks": big_table}, optimizer=False)


def _best_of(fn, repeat: int = 5) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_perf_sql_indexed_point_lookup(benchmark, indexed_engine, full_scan_engine):
    """The tentpole gate: >=5x end-to-end on a selective equality query."""
    expected = full_scan_engine.execute(POINT_SQL).to_rows()
    result = benchmark(indexed_engine.execute, POINT_SQL)
    assert result.to_rows() == expected

    indexed = _best_of(lambda: indexed_engine.execute(POINT_SQL))
    full = _best_of(lambda: full_scan_engine.execute(POINT_SQL))
    speedup = full / indexed
    assert speedup >= MIN_SPEEDUP, (
        f"indexed lookup only {speedup:.1f}x faster than full scan "
        f"(indexed {indexed * 1e3:.3f}ms, full {full * 1e3:.3f}ms); "
        f"gate is {MIN_SPEEDUP:.0f}x over {N_ROWS:,} rows"
    )


def test_perf_sql_full_scan_baseline(benchmark, full_scan_engine):
    """The same query without the optimizer, for the recorded ratio."""
    result = benchmark.pedantic(
        full_scan_engine.execute, args=(POINT_SQL,), rounds=5, iterations=1
    )
    assert result.num_rows == 201


def test_perf_sql_indexed_range_scan(benchmark, indexed_engine):
    result = benchmark(indexed_engine.execute, RANGE_SQL)
    assert result.num_rows == 1_000


def test_perf_sql_analyze(benchmark, big_table):
    engine = QueryEngine({"blocks": big_table})
    summary = benchmark(engine.analyze)
    assert summary.num_rows == 3


def test_perf_sql_optimized_join(benchmark, indexed_engine, big_table):
    """Selective probe side joined against the indexed 200k-row table."""
    probe = Table({"height": np.arange(0, N_ROWS, N_ROWS // 50)})
    engine = QueryEngine({"blocks": big_table, "probe": probe})
    engine.create_index("blocks", "height", "sorted")
    engine.execute("ANALYZE")
    sql = (
        "SELECT p.height, b.producer FROM probe p "
        "JOIN blocks b ON p.height = b.height"
    )
    result = benchmark(engine.execute, sql)
    assert result.num_rows == 50


def _dict_join_pairs(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inner-join pairs from a dict built over the right keys, probed per left row."""
    build: dict = {}
    for j, value in enumerate(right.tolist()):
        build.setdefault(value, []).append(j)
    left_rows: list[int] = []
    right_rows: list[int] = []
    for i, value in enumerate(left.tolist()):
        matches = build.get(value, [])
        left_rows.extend([i] * len(matches))
        right_rows.extend(matches)
    return np.asarray(left_rows, dtype=np.int64), np.asarray(right_rows, dtype=np.int64)


def test_perf_sql_join_eth(benchmark, study):
    """500 ETH block heights joined to every credit row (2.2M) of the year."""
    chain = study.chain("eth")
    mid = chain.n_blocks // 2
    left = chain.block_table()["height"][mid : mid + JOIN_SPAN]
    right = chain.to_table()["height"]
    left_rows, right_rows = benchmark(join_pairs, left, right, "inner")
    expected_left, expected_right = _dict_join_pairs(left, right)
    assert np.array_equal(left_rows, expected_left)
    assert np.array_equal(right_rows, expected_right)
    assert len(left_rows) >= JOIN_SPAN

    kernel = _best_of(lambda: join_pairs(left, right, "inner"))
    reference = _best_of(lambda: _dict_join_pairs(left, right), repeat=2)
    speedup = reference / kernel
    assert speedup >= MIN_JOIN_SPEEDUP, (
        f"join pair kernel only {speedup:.1f}x faster than the dict join "
        f"(kernel {kernel * 1e3:.1f}ms, dict {reference * 1e3:.1f}ms); "
        f"gate is {MIN_JOIN_SPEEDUP:.0f}x over {len(right):,} credit rows"
    )
