"""Tests for EXPLAIN ANALYZE: per-operator plan trees with timings/rows."""

import pytest

from repro import obs
from repro.errors import SqlPlanError
from repro.sql import QueryEngine, format_plan, planner
from repro.table import Table


def tables():
    blocks = Table(
        {
            "height": list(range(10)),
            "producer": ["a", "b", "a", "c", "a", "b", "a", "c", "b", "a"],
        }
    )
    extra = Table({"producer": ["a", "b", "c"], "region": ["x", "y", "x"]})
    return {"blocks": blocks, "pools": extra}


@pytest.fixture
def engine():
    return QueryEngine(tables())


def ops(node, acc=None):
    acc = [] if acc is None else acc
    acc.append(node.op)
    for child in node.children:
        ops(child, acc)
    return acc


class TestPlanTree:
    def test_simple_select_stages(self, engine):
        result, root = engine.explain_analyze(
            "SELECT producer FROM blocks WHERE height > 4"
        )
        assert result.num_rows == 5
        assert root.op == "Query"
        assert root.rows_out == 5
        names = ops(root)
        assert names[:3] == ["Query", "Parse", "Plan"]
        assert "Execute" in names
        assert "Scan" in names
        assert "Filter" in names

    def test_rows_in_out_on_filter(self, engine):
        _, root = engine.explain_analyze("SELECT * FROM blocks WHERE height > 4")
        execute = next(c for c in root.children if c.op == "Execute")
        filter_node = next(c for c in execute.children if c.op == "Filter")
        assert filter_node.rows_in == 10
        assert filter_node.rows_out == 5

    def test_aggregate_sort_limit_stages(self, engine):
        _, root = engine.explain_analyze(
            "SELECT producer, COUNT(*) AS n FROM blocks "
            "GROUP BY producer ORDER BY n DESC LIMIT 2"
        )
        names = ops(root)
        for op in ("Aggregate", "Sort", "Limit"):
            assert op in names, names
        execute = next(c for c in root.children if c.op == "Execute")
        aggregate = next(c for c in execute.children if c.op == "Aggregate")
        assert aggregate.rows_in == 10
        assert aggregate.rows_out == 3
        limit = next(c for c in execute.children if c.op == "Limit")
        assert limit.rows_out == 2

    def test_join_nests_scans(self, engine):
        _, root = engine.explain_analyze(
            "SELECT b.producer, p.region FROM blocks b "
            "JOIN pools p ON b.producer = p.producer"
        )
        execute = next(c for c in root.children if c.op == "Execute")
        join = next(c for c in execute.children if c.op == "Join")
        assert join.rows_out == 10
        assert [c.op for c in join.children].count("Scan") == 2

    def test_union_members(self, engine):
        _, root = engine.explain_analyze(
            "SELECT producer FROM blocks UNION ALL SELECT producer FROM pools"
        )
        union = next(c for c in root.children if c.op == "UnionAll")
        members = [c for c in union.children if c.op == "Member"]
        assert len(members) == 2

    def test_timings_are_recorded(self, engine):
        _, root = engine.explain_analyze("SELECT * FROM blocks")
        assert root.seconds > 0
        assert all(child.seconds >= 0 for child in root.children)


class TestFormatPlan:
    def test_rendering(self, engine):
        _, root = engine.explain_analyze(
            "SELECT producer, COUNT(*) AS n FROM blocks GROUP BY producer LIMIT 2"
        )
        text = format_plan(root)
        lines = text.splitlines()
        assert lines[0].startswith("Query")
        assert "time=" in lines[0]
        assert any("Scan blocks" in line for line in lines)
        assert any("in=10 out=3" in line for line in lines)
        assert any("└─" in line for line in lines)


def find(node, op):
    """The first node named ``op`` in preorder."""
    if node.op == op:
        return node
    for child in node.children:
        found = find(child, op)
        if found is not None:
            return found
    return None


class TestStageOpRouting:
    """Where each operator's statistics go: the EXPLAIN ANALYZE tree,
    ``sql.<Op>`` spans while tracing, or nowhere."""

    def test_collector_takes_priority(self, engine):
        tracer = obs.enable_tracing()
        try:
            _, root = engine.explain_analyze("SELECT * FROM blocks")
            scan = find(root, "Scan")
            assert scan.rows_out == 10
            assert scan.seconds >= 0
            assert "sql.Scan" not in {s.name for s in tracer.spans}
        finally:
            obs.disable_tracing()

    def test_null_op_when_nothing_active(self, engine):
        assert not obs.tracing_enabled()
        tracer = obs.get_tracer()
        tracer.reset()
        result = engine.execute("SELECT * FROM blocks WHERE height > 4")
        assert result.num_rows == 5
        assert tracer.spans == []
        assert tracer.metrics.snapshot()["counters"] == {}

    def test_obs_spans_when_tracing_enabled(self, engine):
        tracer = obs.enable_tracing()
        try:
            engine.execute("SELECT * FROM blocks WHERE height > 5")
            (span,) = [s for s in tracer.spans if s.name == "sql.Scan"]
            assert span.attrs["rows_out"] == 10
            (span,) = [s for s in tracer.spans if s.name == "sql.Filter"]
            assert span.attrs["rows_out"] == 4
        finally:
            obs.disable_tracing()

    def test_execute_emits_sql_spans_under_tracing(self, engine):
        tracer = obs.enable_tracing()
        try:
            engine.execute("SELECT * FROM blocks WHERE height > 4")
            names = {s.name for s in tracer.spans}
            assert "sql.query" in names
            assert "sql.Scan" in names
            assert "sql.Filter" in names
            assert tracer.metrics.snapshot()["counters"]["sql.queries"] == 1.0
        finally:
            obs.disable_tracing()


class TestOneTreePerQuery:
    def test_each_select_is_built_once(self, engine, monkeypatch):
        calls = []
        real = planner.build_select

        def counting(select, *args, **kwargs):
            calls.append(select)
            return real(select, *args, **kwargs)

        monkeypatch.setattr(planner, "build_select", counting)
        result = engine.execute(
            "SELECT MAX(n) AS biggest FROM (SELECT producer, n FROM "
            "(SELECT producer, COUNT(*) AS n FROM blocks GROUP BY producer) inner1 "
            "WHERE n > 1) outer1"
        )
        assert result.to_rows() == [{"biggest": 5}]
        assert len(calls) == 3

    @pytest.mark.parametrize("optimizer", [True, False])
    @pytest.mark.parametrize(
        "sql, message",
        [
            ("SELECT producer FROM nosuch", "unknown table 'nosuch'"),
            ("SELECT nocol FROM blocks", "unknown column 'nocol'"),
            ("SELECT height FROM blocks WHERE nocol > 1", "unknown column 'nocol'"),
            ("SELECT b.nocol FROM blocks b JOIN pools p ON b.producer = p.producer",
             "unknown column 'b.nocol'"),
            ("SELECT producer, SUM(nocol) AS s FROM blocks GROUP BY producer",
             "unknown column 'nocol'"),
            ("SELECT height FROM blocks ORDER BY nocol", "unknown column 'nocol'"),
            ("SELECT d.x FROM (SELECT nocol AS x FROM blocks) d", "unknown column 'nocol'"),
        ],
    )
    def test_explain_rejects_what_execute_rejects(self, sql, message, optimizer):
        engine = QueryEngine(tables(), optimizer=optimizer)
        with pytest.raises(SqlPlanError) as executed:
            engine.execute(sql)
        with pytest.raises(SqlPlanError) as explained:
            engine.explain(sql)
        assert message in str(executed.value)
        assert str(explained.value) == str(executed.value)
