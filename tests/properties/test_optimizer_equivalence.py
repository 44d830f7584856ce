"""Byte-identity of the cost-based optimizer against the unoptimized executor.

Physical planning is advisory: for any query and any combination of
statistics, indexes and strategy toggles, results must equal the
``optimizer=False`` engine's — same rows, same order, same dtypes.  The
matrix below runs every query under every engine variant and compares
the full row list plus the per-column numpy dtypes.
"""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sql import PlannerOptions, QueryEngine, format_plan
from repro.table import Table

GOLDEN = Path(__file__).resolve().parents[1] / "golden"

QUERIES = [
    "SELECT * FROM blocks WHERE height > 12",
    "SELECT producer FROM blocks WHERE producer = 'p1'",
    "SELECT height, reward FROM blocks WHERE height BETWEEN 5 AND 25",
    "SELECT producer, COUNT(*) AS n FROM blocks WHERE height < 30 "
    "GROUP BY producer HAVING n > 1 ORDER BY n DESC, producer LIMIT 4",
    "SELECT b.height, p.region FROM blocks b JOIN pools p "
    "ON b.producer = p.producer WHERE b.height < 20 ORDER BY b.height",
    "SELECT b.height, p.region FROM blocks b LEFT JOIN pools p "
    "ON b.producer = p.producer ORDER BY b.height",
    "SELECT DISTINCT producer FROM blocks WHERE reward >= 2 ORDER BY producer",
    "SELECT d.producer, d.n FROM (SELECT producer, COUNT(*) AS n "
    "FROM blocks GROUP BY producer) d WHERE d.n > 3 ORDER BY d.producer",
    "SELECT height FROM blocks WHERE height = 7 OR producer = 'p2' ORDER BY height",
]


def catalog() -> dict[str, Table]:
    n = 40
    return {
        "blocks": Table(
            {
                "height": list(range(n)),
                "producer": [f"p{i % 5}" for i in range(n)],
                "reward": [float(i % 7) for i in range(n)],
            }
        ),
        # p4 is missing so joins exercise non-matching keys / LEFT NULLs.
        "pools": Table(
            {"producer": ["p0", "p1", "p2", "p3"], "region": ["w", "x", "y", "z"]}
        ),
    }


def variant_engines() -> list[tuple[str, QueryEngine]]:
    engines: list[tuple[str, QueryEngine]] = []

    def add(name: str, analyze: bool = True, indexed: bool = True, **kwargs):
        eng = QueryEngine(catalog(), **kwargs)
        if indexed:
            eng.create_index("blocks", "height", "sorted")
            eng.create_index("blocks", "producer", "hash")
            eng.create_index("pools", "producer", "hash")
        if analyze:
            eng.execute("ANALYZE")
        engines.append((name, eng))

    add("no-stats-no-index", analyze=False, indexed=False)
    add("stats-only", indexed=False)
    add("stats-and-indexes")
    add("force-sort-merge", options=PlannerOptions.with_disabled(
        ["hash-join", "index-join"]
    ))
    add("force-index-join", options=PlannerOptions.with_disabled(
        ["hash-join", "sort-merge-join"]
    ))
    add("no-pushdown", options=PlannerOptions.with_disabled(
        ["predicate-pushdown", "projection-pushdown"]
    ))
    add("no-index-scan", options=PlannerOptions.with_disabled(["index-scan"]))
    return engines


def snapshot(table: Table):
    return (
        table.column_names,
        tuple(str(np.asarray(table[c]).dtype) for c in table.column_names),
        table.to_rows(),
    )


class TestOptimizerEquivalence:
    @pytest.mark.parametrize("sql", QUERIES)
    def test_matrix_is_byte_identical(self, sql):
        baseline_engine = QueryEngine(catalog(), optimizer=False)
        baseline = snapshot(baseline_engine.execute(sql))
        for name, engine in variant_engines():
            got = snapshot(engine.execute(sql))
            assert got == baseline, f"variant {name!r} diverged on {sql!r}"

    @pytest.mark.parametrize("sql", QUERIES)
    def test_explain_analyze_matches_execute(self, sql):
        engine = QueryEngine(catalog())
        engine.create_index("blocks", "height", "sorted")
        engine.execute("ANALYZE")
        plain = snapshot(engine.execute(sql))
        traced, _ = engine.explain_analyze(sql)
        assert snapshot(traced) == plain


#: Plans whose subtrees EXPLAIN used to hide: UNION ALL members and a
#: derived table nested two deep.
NESTED_QUERIES = [
    "SELECT producer FROM blocks WHERE height < 3 UNION ALL "
    "SELECT producer FROM pools WHERE region = 'x'",
    "SELECT MAX(n) AS biggest FROM (SELECT producer, n FROM "
    "(SELECT producer, COUNT(*) AS n FROM blocks GROUP BY producer) inner1 "
    "WHERE n > 1) outer1",
]

#: Execution-only statistics on an EXPLAIN ANALYZE line.
_ACTUALS = re.compile(r"\s(?:time|rows|in|out|bytes|spill)=\S+")


def plan_shape(text: str) -> list[str]:
    """Plan lines as label plus ``est=``, actuals and padding dropped."""
    return [" ".join(_ACTUALS.sub("", line).split()) for line in text.splitlines()]


class TestExplainIsTheExecutedTree:
    @pytest.mark.parametrize("sql", QUERIES + NESTED_QUERIES)
    def test_explain_matches_explain_analyze(self, sql):
        for name, engine in variant_engines():
            explained = engine.explain(sql).split("-- physical plan (estimated rows) --\n")[1]
            _, root = engine.explain_analyze(sql)
            executed = root.children[-1]  # after Parse and Plan
            assert plan_shape(format_plan(executed)) == plan_shape(explained), name


def golden_explain(variant: str, queries: list[str]) -> str:
    engine = dict(variant_engines())[variant]
    return "".join(f"-- {sql}\n{engine.explain(sql)}\n\n" for sql in queries)


class TestGoldenExplain:
    """EXPLAIN text, byte for byte: the single-SELECT matrix queries as
    the pre-tree planner printed them, plus the derived-table query."""

    @pytest.mark.parametrize("variant", ["stats-and-indexes", "no-stats-no-index"])
    def test_single_select_text(self, variant):
        single = [sql for sql in QUERIES if "(SELECT" not in sql]
        expected = (GOLDEN / f"explain_{variant}.txt").read_text()
        assert golden_explain(variant, single) == expected

    def test_derived_table_text(self):
        derived = [sql for sql in QUERIES if "(SELECT" in sql]
        text = "".join(
            golden_explain(variant, derived)
            for variant in ("stats-and-indexes", "no-stats-no-index")
        )
        assert text == (GOLDEN / "explain_derived.txt").read_text()


@st.composite
def random_tables(draw):
    n = draw(st.integers(min_value=0, max_value=40))
    producers = draw(
        st.lists(st.sampled_from(["a", "b", "c", "d"]), min_size=n, max_size=n)
    )
    heights = draw(
        st.lists(st.integers(min_value=0, max_value=15), min_size=n, max_size=n)
    )
    return Table({"height": heights, "producer": producers})


class TestOptimizerEquivalenceProperties:
    @given(random_tables(), st.integers(min_value=-1, max_value=16))
    @settings(max_examples=40)
    def test_equality_filter_identical(self, table, pivot):
        sql = f"SELECT producer FROM t WHERE height = {pivot}"
        baseline = QueryEngine({"t": table}, optimizer=False).execute(sql)
        optimized = QueryEngine({"t": table})
        optimized.create_index("t", "height", "sorted")
        optimized.execute("ANALYZE")
        assert snapshot(optimized.execute(sql)) == snapshot(baseline)

    @given(random_tables(), random_tables())
    @settings(max_examples=25)
    def test_join_strategies_identical(self, left, right):
        sql = (
            "SELECT l.height, r.height AS rh FROM l JOIN r "
            "ON l.producer = r.producer"
        )
        baseline = snapshot(QueryEngine(
            {"l": left, "r": right}, optimizer=False
        ).execute(sql))
        for disabled in (
            [],
            ["hash-join", "index-join"],
            ["hash-join", "sort-merge-join"],
        ):
            engine = QueryEngine(
                {"l": left, "r": right},
                options=PlannerOptions.with_disabled(disabled),
            )
            engine.create_index("r", "producer", "hash")
            engine.execute("ANALYZE")
            assert snapshot(engine.execute(sql)) == baseline, disabled
