"""``Chain.to_table`` and ``Chain.block_table`` on the calibrated datasets.

The name columns are built with one fancy index over ``producer_names``;
they must equal the per-element ``producer_names[pid]`` lookup — same
kinds, dtypes, values and string objects.
"""

import numpy as np
import pytest

CHAINS = ["btc_chain", "eth_chain"]


def _assert_names(column, chain, ids: np.ndarray) -> None:
    expected = [chain.producer_names[pid] for pid in ids.tolist()]
    assert (column.kind, column.values.dtype) == ("str", np.dtype(object))
    actual = column.values.tolist()
    assert actual == expected
    assert all(a is e for a, e in zip(actual, expected))


def _assert_ints(column, expected: np.ndarray) -> None:
    assert (column.kind, column.values.dtype) == ("int", np.dtype(np.int64))
    assert np.array_equal(column.values, expected)


@pytest.mark.parametrize("fixture", CHAINS)
def test_to_table_matches_per_element_lookup(request, fixture):
    chain = request.getfixturevalue(fixture)
    table = chain.to_table()
    counts = chain.producer_counts()
    assert table.column_names == ("height", "timestamp", "producer", "n_producers")
    _assert_ints(table.column("height"), np.repeat(chain.heights, counts))
    _assert_ints(table.column("timestamp"), np.repeat(chain.timestamps, counts))
    _assert_names(table.column("producer"), chain, chain.producer_ids)
    _assert_ints(table.column("n_producers"), np.repeat(counts, counts))


@pytest.mark.parametrize("fixture", CHAINS)
def test_block_table_matches_per_element_lookup(request, fixture):
    chain = request.getfixturevalue(fixture)
    table = chain.block_table()
    assert table.column_names == ("height", "timestamp", "primary_producer", "n_producers")
    _assert_ints(table.column("height"), chain.heights)
    _assert_ints(table.column("timestamp"), chain.timestamps)
    _assert_names(
        table.column("primary_producer"), chain, chain.producer_ids[chain.offsets[:-1]]
    )
    _assert_ints(table.column("n_producers"), chain.producer_counts())
