"""Tests for the cost-based optimizer: planner decisions and edge cases."""

import numpy as np
import pytest

from repro.errors import SqlPlanError
from repro.sql import PlannerOptions, QueryEngine, format_plan
from repro.sql.cost import (
    choose_join_strategy,
    cost_hash_join,
    cost_index_join,
    cost_sort_merge_join,
)
from repro.sql.parser import parse
from repro.table import Table


def blocks_table(n: int = 100) -> Table:
    return Table(
        {
            "height": list(range(n)),
            "producer": [f"p{i % 7}" for i in range(n)],
            "reward": [float(i % 13) for i in range(n)],
        }
    )


@pytest.fixture
def engine() -> QueryEngine:
    eng = QueryEngine({"blocks": blocks_table(), "pools": Table(
        {"producer": [f"p{i}" for i in range(7)], "region": ["r"] * 7}
    )})
    return eng


def physical_for(eng: QueryEngine, sql: str):
    """The operator tree ``eng`` plans for ``sql``."""
    return eng._build(parse(sql))


def nodes(tree, op: str) -> list:
    """Every node named ``op``, in preorder."""
    found = [tree] if tree.op == op else []
    for child in tree.children:
        found.extend(nodes(child, op))
    return found


def scan(tree, binding: str):
    (node,) = [n for n in nodes(tree, "Scan") if n.binding == binding]
    return node


def pushed_filter(tree, binding: str):
    """The filter pushed into ``binding``'s scan, or None."""
    for parent in [tree, *nodes(tree, "Join"), *nodes(tree, "Subquery")]:
        for i, child in enumerate(parent.children[:-1]):
            follower = parent.children[i + 1]
            if child is scan(tree, binding) and follower.detail == "pushed":
                return follower
    return None


def scan_rows(tree, binding: str) -> int:
    """Estimated rows out of ``binding``'s access path and pushed filter."""
    node = pushed_filter(tree, binding) or scan(tree, binding)
    return node.rows_est


class TestAnalyzeStatement:
    def test_analyze_collects_and_reports(self, engine):
        summary = engine.execute("ANALYZE blocks")
        assert engine.stats_state("blocks") == "fresh"
        assert engine.stats_state("pools") == "absent"
        rows = summary.to_rows()
        assert {r["column"] for r in rows} == {"height", "producer", "reward"}
        height = next(r for r in rows if r["column"] == "height")
        assert height["rows"] == 100
        assert height["distinct"] == 100

    def test_analyze_all(self, engine):
        summary = engine.execute("ANALYZE")
        assert {r["table"] for r in summary.to_rows()} == {"blocks", "pools"}
        assert engine.stats_state("pools") == "fresh"

    def test_analyze_unknown_table(self, engine):
        with pytest.raises(SqlPlanError, match="unknown table"):
            engine.execute("ANALYZE nope")

    def test_stale_after_register(self, engine):
        engine.execute("ANALYZE blocks")
        engine.register("blocks", blocks_table(200))
        assert engine.stats_state("blocks") == "stale"
        # Stale statistics still plan (ratios against the new row count).
        physical = physical_for(engine, "SELECT * FROM blocks WHERE height < 10")
        assert scan(physical, "blocks").stats_state == "stale"
        assert scan(physical, "blocks").rows_est == 200


class TestScanPlanning:
    def test_absent_stats_use_heuristics(self, engine):
        physical = physical_for(
            engine, "SELECT producer FROM blocks WHERE producer = 'p1'"
        )
        assert scan(physical, "blocks").stats_state == "absent"
        # Default equality selectivity is 0.1.
        assert scan_rows(physical, "blocks") == 10

    def test_fresh_stats_improve_estimate(self, engine):
        engine.execute("ANALYZE blocks")
        physical = physical_for(
            engine, "SELECT producer FROM blocks WHERE producer = 'p1'"
        )
        # p1 appears in ceil(100/7) rows; the MCV estimate is exact.
        assert scan_rows(physical, "blocks") == 15

    def test_selective_equality_uses_index(self, engine):
        engine.execute("ANALYZE blocks")
        engine.create_index("blocks", "height", "sorted")
        physical = physical_for(engine, "SELECT * FROM blocks WHERE height = 42")
        assert scan(physical, "blocks").access == "index-eq"
        assert scan(physical, "blocks").index_column == "height"
        assert pushed_filter(physical, "blocks") is None

    def test_unselective_predicate_keeps_full_scan(self, engine):
        engine.execute("ANALYZE blocks")
        engine.create_index("blocks", "height", "sorted")
        physical = physical_for(engine, "SELECT * FROM blocks WHERE height >= 1")
        assert scan(physical, "blocks").access == "seq"

    def test_range_needs_sorted_index(self, engine):
        engine.execute("ANALYZE blocks")
        engine.create_index("blocks", "height", "hash")
        physical = physical_for(engine, "SELECT * FROM blocks WHERE height < 3")
        assert scan(physical, "blocks").access == "seq"
        physical = physical_for(engine, "SELECT * FROM blocks WHERE height = 3")
        assert scan(physical, "blocks").access == "index-eq"

    def test_index_scan_toggle(self, engine):
        eng = QueryEngine(
            {"blocks": blocks_table()},
            options=PlannerOptions.with_disabled(["index-scan"]),
        )
        eng.execute("ANALYZE blocks")
        eng.create_index("blocks", "height", "sorted")
        physical = physical_for(eng, "SELECT * FROM blocks WHERE height = 42")
        assert scan(physical, "blocks").access == "seq"

    def test_all_duplicate_index_column_not_selective(self, engine):
        table = Table({"x": [7] * 100, "y": list(range(100))})
        eng = QueryEngine({"t": table})
        eng.execute("ANALYZE t")
        eng.create_index("t", "x", "sorted")
        # x = 7 matches everything; the index cannot beat a full scan.
        physical = physical_for(eng, "SELECT y FROM t WHERE x = 7")
        assert scan(physical, "t").access == "seq"
        # ... but a miss value is perfectly selective.
        physical = physical_for(eng, "SELECT y FROM t WHERE x = 8")
        assert scan(physical, "t").access == "index-eq"
        assert eng.execute("SELECT y FROM t WHERE x = 8").num_rows == 0

    def test_empty_table(self, engine):
        eng = QueryEngine({"empty": Table({"x": [], "name": []})})
        eng.execute("ANALYZE empty")
        physical = physical_for(eng, "SELECT * FROM empty WHERE x = 1")
        assert scan(physical, "empty").rows_est == 0
        assert physical.rows_est == 0
        assert eng.execute("SELECT * FROM empty WHERE x = 1").num_rows == 0

    def test_projection_pushdown_prunes_columns(self, engine):
        physical = physical_for(engine, "SELECT height FROM blocks WHERE height > 1000")
        assert scan(physical, "blocks").columns == ("height",)

    def test_projection_pushdown_disabled_for_star(self, engine):
        physical = physical_for(engine, "SELECT * FROM blocks WHERE height > 1000")
        assert scan(physical, "blocks").columns is None

    def test_no_pushdown_into_left_join_right_side(self, engine):
        physical = physical_for(
            engine,
            "SELECT b.height FROM blocks b LEFT JOIN pools p "
            "ON b.producer = p.producer WHERE p.region = 'r'",
        )
        assert pushed_filter(physical, "p") is None
        assert [n.detail for n in physical.children if n.op == "Filter"] == [""]


class TestJoinStrategies:
    def test_forcing_each_strategy(self, engine):
        sql = (
            "SELECT b.height FROM blocks b JOIN pools p ON b.producer = p.producer"
        )
        engine.create_index("pools", "producer", "hash")
        for disabled, expected in [
            (["sort-merge-join", "index-join"], "hash"),
            (["hash-join", "index-join"], "sort_merge"),
            (["hash-join", "sort-merge-join"], "index"),
        ]:
            eng = QueryEngine(
                {"blocks": blocks_table(), "pools": Table(
                    {"producer": [f"p{i}" for i in range(7)], "region": ["r"] * 7}
                )},
                options=PlannerOptions.with_disabled(disabled),
            )
            eng.create_index("pools", "producer", "hash")
            physical = physical_for(eng, sql)
            (join_plan,) = nodes(physical, "Join")
            assert join_plan.strategy == expected, disabled
            # Results are identical no matter the strategy.
            assert (
                eng.execute(sql).to_rows()
                == engine.execute(sql).to_rows()
            )

    def test_all_strategies_disabled_falls_back_to_hash(self):
        options = PlannerOptions.with_disabled(
            ["hash-join", "sort-merge-join", "index-join"]
        )
        strategy, _ = choose_join_strategy(options, 100, 100, "hash")
        assert strategy == "hash"

    def test_index_join_requires_clean_right_scan(self, engine):
        engine.create_index("pools", "producer", "hash")
        engine.execute("ANALYZE")
        # A pushed filter on the right side invalidates index row positions.
        physical = physical_for(
            engine,
            "SELECT b.height FROM blocks b JOIN pools p "
            "ON b.producer = p.producer WHERE p.region = 'nope'",
        )
        (join_plan,) = nodes(physical, "Join")
        assert join_plan.strategy != "index"

    def test_cost_model_orderings(self):
        # Small probe side vs huge indexed side: index nested-loop wins.
        assert cost_index_join(10, 1_000_000, "hash") < cost_hash_join(10, 1_000_000)
        # Similar sides: hash beats sort-merge.
        assert cost_hash_join(1000, 1000) < cost_sort_merge_join(1000, 1000)

    def test_unknown_toggle_rejected(self):
        with pytest.raises(ValueError, match="unknown planner toggle"):
            PlannerOptions.with_disabled(["warp-drive"])


class TestExplainEstimates:
    def test_explain_shows_estimates_per_node(self, engine):
        engine.execute("ANALYZE")
        text = engine.explain(
            "SELECT producer, COUNT(*) AS n FROM blocks "
            "WHERE height < 50 GROUP BY producer ORDER BY n DESC LIMIT 3"
        )
        assert "-- physical plan (estimated rows) --" in text
        for op in ("Scan", "Filter", "Aggregate", "Sort", "Limit"):
            line = next(l for l in text.splitlines() if op in l)
            assert "est=" in line, line
        # Legacy summary is still present.
        for fragment in ("FROM", "WHERE", "AGGREGATE", "ORDER BY", "LIMIT"):
            assert fragment in text

    def test_explain_analyze_estimated_vs_actual(self, engine):
        engine.execute("ANALYZE")
        _, root = engine.explain_analyze(
            "SELECT producer FROM blocks WHERE height < 50"
        )
        text = format_plan(root)
        filter_line = next(l for l in text.splitlines() if "Filter" in l)
        assert "est=" in filter_line
        assert "out=50" in filter_line

    def test_join_strategy_in_plan(self, engine):
        text = engine.explain(
            "SELECT b.height FROM blocks b JOIN pools p ON b.producer = p.producer"
        )
        assert "strategy=" in text
        assert "cost=" in text

    def test_optimizer_disabled_engine(self):
        eng = QueryEngine({"blocks": blocks_table()}, optimizer=False)
        text = eng.explain("SELECT * FROM blocks WHERE height = 1")
        assert "physical plan" not in text
        assert eng.execute("SELECT * FROM blocks WHERE height = 1").num_rows == 1

    def test_explain_analyze_statement(self, engine):
        text = engine.explain("ANALYZE blocks")
        assert text.startswith("ANALYZE blocks")


class TestIndexMaintenance:
    def test_register_rebuilds_indexes(self, engine):
        engine.create_index("blocks", "height", "sorted")
        engine.register("blocks", blocks_table(10))
        physical = physical_for(engine, "SELECT * FROM blocks WHERE height = 3")
        assert scan(physical, "blocks").access == "index-eq"
        assert engine.execute("SELECT * FROM blocks WHERE height = 3").num_rows == 1

    def test_register_drops_vanished_column_spec(self, engine, caplog):
        engine.create_index("blocks", "reward", "sorted")
        with caplog.at_level("WARNING"):
            engine.register("blocks", Table({"height": [1], "producer": ["a"]}))
        assert engine.index_specs("blocks") == {}
        assert engine.execute("SELECT * FROM blocks").num_rows == 1

    def test_unknown_index_column(self, engine):
        with pytest.raises(Exception):
            engine.create_index("blocks", "nope")

    def test_unknown_index_table(self, engine):
        with pytest.raises(SqlPlanError, match="unknown table"):
            engine.create_index("nope", "x")
