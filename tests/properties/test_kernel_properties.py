"""Property tests for the equi-join pair kernel and the group factorizer.

Each kernel is checked against a small dict-based reference kept here:
the join against a build-dict-and-probe-loop, the factorizer against a
first-appearance dict over key tuples with every NULL (NaN or ``None``)
as one key.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sql import PlannerOptions, QueryEngine
from repro.sql.executor import _assemble_join, join_pairs
from repro.table import Table
from repro.table.grouping import factorize

#: Small value pools so both sides repeat keys.
KEY_POOLS = {
    "int": st.integers(min_value=-2, max_value=3),
    "float": st.sampled_from([0.0, -0.0, 1.5, 2.0, math.nan]),
    "str": st.sampled_from(["a", "b", "c", None]),
}
DTYPES = {"int": np.int64, "float": np.float64, "str": object}


def key_lists(kind: str, min_size: int = 0):
    return st.lists(KEY_POOLS[kind], min_size=min_size, max_size=25)


def as_array(values: list, kind: str) -> np.ndarray:
    out = np.empty(len(values), dtype=DTYPES[kind])
    out[:] = values
    return out


def reference_pairs(left: np.ndarray, right: np.ndarray, how: str) -> tuple[list, list]:
    build: dict = {}
    for j, value in enumerate(right.tolist()):
        build.setdefault(value, []).append(j)
    left_rows, right_rows = [], []
    for i, value in enumerate(left.tolist()):
        matches = build.get(value, []) or ([-1] if how == "left" else [])
        left_rows += [i] * len(matches)
        right_rows += matches
    return left_rows, right_rows


def assert_tables_identical(actual: Table, expected: Table) -> None:
    assert actual.column_names == expected.column_names
    for name in expected.column_names:
        a, e = actual.column(name), expected.column(name)
        assert (a.kind, a.values.dtype) == (e.kind, e.values.dtype)
        if e.values.dtype == object:
            assert a.values.tolist() == e.values.tolist()
        else:
            assert a.values.tobytes() == e.values.tobytes()


@st.composite
def join_inputs(draw):
    left_kind = draw(st.sampled_from(sorted(KEY_POOLS)))
    # Mostly same-kind keys; int against float covers mixed numerics.
    mixed = "float" if left_kind == "int" else left_kind
    right_kind = draw(st.sampled_from([left_kind, left_kind, mixed]))
    left_keys = as_array(draw(key_lists(left_kind)), left_kind)
    right_keys = as_array(draw(key_lists(right_kind)), right_kind)
    how = draw(st.sampled_from(["inner", "left"]))
    return left_keys, right_keys, how


class TestJoinPairs:
    @given(join_inputs())
    @settings(max_examples=300, deadline=None)
    def test_matches_dict_reference(self, inputs):
        left_keys, right_keys, how = inputs
        left_rows, right_rows = join_pairs(left_keys, right_keys, how)
        expected_left, expected_right = reference_pairs(left_keys, right_keys, how)
        assert left_rows.tolist() == expected_left
        assert right_rows.tolist() == expected_right

        left = Table({"k": left_keys, "lpos": np.arange(len(left_keys))})
        right = Table({"rk": right_keys, "tag": [f"r{j}" for j in range(len(right_keys))]})
        assert_tables_identical(
            _assemble_join(left, right, left_rows, right_rows),
            _assemble_join(left, right, expected_left, expected_right),
        )

    @given(key_lists("str", min_size=1), key_lists("str", min_size=1))
    @settings(max_examples=60, deadline=None)
    def test_hash_and_sort_merge_identical_through_sql(self, left_values, right_values):
        tables = {
            "l": Table({"k": as_array(left_values, "str"), "i": np.arange(len(left_values))}),
            "r": Table({"k": as_array(right_values, "str"), "j": np.arange(len(right_values))}),
        }
        sql = "SELECT l.i, r.j, r.k FROM l LEFT JOIN r ON l.k = r.k"
        hashed = QueryEngine(tables, options=PlannerOptions(sort_merge_join=False))
        merged = QueryEngine(tables, options=PlannerOptions(hash_join=False))
        assert "strategy=hash" in hashed.explain(sql)
        assert "strategy=sort_merge" in merged.explain(sql)
        assert_tables_identical(merged.execute(sql), hashed.execute(sql))


_NULL = object()


def reference_factorize(keys: list[np.ndarray]) -> tuple[list[int], list[int]]:
    index: dict = {}
    codes, first = [], []
    for row, values in enumerate(zip(*(k.tolist() for k in keys))):
        key = tuple(_NULL if v is None or v != v else v for v in values)
        if key not in index:
            index[key] = len(index)
            first.append(row)
        codes.append(index[key])
    return codes, first


@st.composite
def key_columns(draw):
    n = draw(st.integers(min_value=0, max_value=30))
    kinds = draw(st.lists(st.sampled_from(sorted(KEY_POOLS)), min_size=1, max_size=3))
    return [
        as_array(draw(st.lists(KEY_POOLS[kind], min_size=n, max_size=n)), kind)
        for kind in kinds
    ]


class TestFactorize:
    @given(key_columns())
    @settings(max_examples=300, deadline=None)
    def test_matches_first_appearance_reference(self, keys):
        codes, first = factorize(keys)
        expected_codes, expected_first = reference_factorize(keys)
        assert codes.dtype == np.int64 and first.dtype == np.int64
        assert codes.tolist() == expected_codes
        assert first.tolist() == expected_first
