"""NULL group keys form one group, however many keys there are.

A float key's NaNs (and an object key's ``None``s) are one group in the
serial SQL aggregate, in the parallel partial/final aggregate and in
``Table.group_by`` — with one key or several.
"""

import math

import numpy as np
import pytest

from repro.sql import QueryEngine
from repro.sql import executor as executor_module
from repro.table import Table

NAN = float("nan")


@pytest.fixture()
def table() -> Table:
    return Table(
        {
            "x": [1.0, NAN, NAN, 2.0],
            "y": [1, 1, 1, 1],
            "s": ["a", None, None, "a"],
        }
    )


def _rows(result: Table) -> list[tuple]:
    """Rows as tuples with NaN spelled ``"NaN"`` so they compare equal."""
    return [
        tuple("NaN" if isinstance(v, float) and math.isnan(v) else v for v in row.values())
        for row in result.to_rows()
    ]


class TestSerialSql:
    def test_one_key(self, table):
        result = QueryEngine({"t": table}).execute(
            "SELECT x, COUNT(*) AS n FROM t GROUP BY x"
        )
        assert _rows(result) == [(1.0, 1), ("NaN", 2), (2.0, 1)]

    def test_two_keys(self, table):
        result = QueryEngine({"t": table}).execute(
            "SELECT x, y, COUNT(*) AS n FROM t GROUP BY x, y"
        )
        assert _rows(result) == [(1.0, 1, 1), ("NaN", 1, 2), (2.0, 1, 1)]

    def test_none_and_nan_keys(self, table):
        result = QueryEngine({"t": table}).execute(
            "SELECT s, x, COUNT(*) AS n FROM t GROUP BY s, x"
        )
        assert _rows(result) == [("a", 1.0, 1), (None, "NaN", 2), ("a", 2.0, 1)]

    def test_distinct_over_two_columns(self, table):
        result = QueryEngine({"t": table}).execute("SELECT DISTINCT x, y FROM t")
        assert _rows(result) == [(1.0, 1), ("NaN", 1), (2.0, 1)]


class TestTableGroupBy:
    def test_two_keys(self, table):
        result = table.group_by(["x", "y"]).aggregate(n=("y", "count"))
        assert _rows(result) == [(1.0, 1, 1), ("NaN", 1, 2), (2.0, 1, 1)]

    def test_one_key_matches_two_keys(self, table):
        one = table.group_by("x").aggregate(n=("y", "count"))
        two = table.group_by(["x", "y"]).aggregate(n=("y", "count"))
        assert one["n"].tolist() == two["n"].tolist()

    def test_distinct(self, table):
        assert table.select(["x", "y"]).distinct().num_rows == 3


class TestParallelMerge:
    """NaN keys seen by several partitions merge into one group."""

    @pytest.fixture(scope="class")
    def big_table(self) -> Table:
        n = executor_module._PARALLEL_MIN_ROWS
        rng = np.random.default_rng(11)
        x = rng.integers(0, 4, n).astype(np.float64)
        x[x == 3.0] = np.nan
        return Table({"x": x, "y": rng.integers(0, 2, n), "w": rng.random(n)})

    SQL = (
        "SELECT x, y, COUNT(*) AS n, MIN(w) AS lo, MAX(w) AS hi "
        "FROM t GROUP BY x, y"
    )

    def test_same_groups_as_serial(self, big_table):
        serial = QueryEngine({"t": big_table}, workers=1).execute(self.SQL)
        result, root = QueryEngine({"t": big_table}, workers=2).explain_analyze(self.SQL)
        assert "FinalizeAggregate" in _ops(root)
        assert result == serial
        assert result.num_rows == 8  # x in {0, 1, 2, NULL} by y in {0, 1}
        null_rows = np.isnan(result["x"])
        assert int(null_rows.sum()) == 2
        assert int(result["n"].sum()) == big_table.num_rows


def _ops(node) -> set[str]:
    ops = {node.op}
    for child in node.children:
        ops |= _ops(child)
    return ops
