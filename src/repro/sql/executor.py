"""Query execution over :mod:`repro.table` tables.

The executor walks the operator tree :func:`~repro.sql.planner.build`
produces for a statement: FROM (scans and joins) → WHERE → GROUP
BY/aggregates → HAVING → SELECT projection → DISTINCT → ORDER BY →
LIMIT/OFFSET.

NULL handling is deliberately simple (the datasets the study uses have no
NULLs outside LEFT JOIN results): comparisons treat ``None`` as an ordinary
value, ``IS NULL`` matches ``None`` and NaN, and ``COUNT(x)`` skips NULLs.
"""

from __future__ import annotations

import logging
from typing import Any, Mapping

import numpy as np

from repro import obs
from repro.errors import SqlExecutionError, SqlPlanError
from repro.sql.astnodes import (
    Aggregate,
    Analyze,
    Between,
    Binary,
    Case,
    ColumnRef,
    Expr,
    FunctionCall,
    InList,
    IsNull,
    Literal,
    Select,
    TableRef,
    Unary,
    Union,
)
from repro.parallel import WorkerPool, resolve_workers, shard_ranges
from repro.parallel import work as _work
from repro.sql.analyze import PlanNode, format_plan, measure, note_spill
from repro.sql.cost import PlannerOptions
from repro.sql.functions import AGGREGATE_FUNCTIONS, call_scalar_function, like_match
from repro.sql.parser import parse
from repro.sql.planner import (
    AggregateNode,
    DistinctNode,
    FilterNode,
    JoinNode,
    LimitNode,
    Outputs,
    ProjectNode,
    ScanNode,
    SelectNode,
    SortNode,
    SourceInfo,
    UnionAllNode,
    build,
    find_aggregates,
    source_tables,
)
from repro.table import Table, concat
from repro.table.aggregates import grouped_aggregate
from repro.table.column import Column
from repro.table.grouping import dict_codes, factorize
from repro.table.index import Index, build_index
from repro.table.stats import TableStatistics

logger = logging.getLogger(__name__)

#: Object-dtype comparisons below this many rows skip the fallback warning.
_OBJECT_COMPARE_WARN_ROWS = 100_000

#: Below this many input rows a fork-per-query costs more than the grouping
#: itself, so the parallel aggregate defers to the serial path even when
#: the engine was built with ``workers`` >= 2.
_PARALLEL_MIN_ROWS = 50_000

#: Aggregates with a mergeable partial state (COUNT/SUM as running sums,
#: AVG as (sum, count), MIN/MAX as running extrema).  DISTINCT variants
#: and the holistic aggregates (MEDIAN, STDDEV, VARIANCE) have no cheap
#: partial and always run serially.
_PARALLEL_FUNCS = frozenset({"COUNT", "SUM", "AVG", "MIN", "MAX"})


def query(sql: str, **tables: Table) -> Table:
    """Parse and execute ``sql`` against keyword-argument tables.

    >>> query("SELECT COUNT(*) AS n FROM t", t=Table({"x": [1, 2]})).to_rows()
    [{'n': 2}]
    """
    return QueryEngine(tables).execute(sql)


class QueryEngine:
    """Executes SQL against a named catalog of in-memory tables.

    ``workers`` >= 2 enables the parallel group-by operators: eligible
    aggregations over at least :data:`_PARALLEL_MIN_ROWS` input rows run
    as a partitioned columnar scan plus partial aggregates on a
    :class:`~repro.parallel.WorkerPool`, finalized on the coordinator
    (group numbering and COUNT/MIN/MAX results match the serial path
    exactly; SUM/AVG may differ in the last float ulp because partial
    sums reassociate).  The default is serial execution.
    """

    def __init__(
        self,
        catalog: Mapping[str, Table] | None = None,
        workers: int | str | None = 1,
        optimizer: bool = True,
        options: PlannerOptions | None = None,
    ) -> None:
        self._catalog: dict[str, Table] = dict(catalog or {})
        self.workers = resolve_workers(workers if workers is not None else 1)
        self.optimizer_enabled = bool(optimizer)
        self.options = options if options is not None else PlannerOptions()
        #: ANALYZE results: table name -> (the table object analyzed, stats).
        #: Replacing the table via :meth:`register` marks its stats stale.
        self._analyzed: dict[str, tuple[Table, TableStatistics]] = {}
        #: Declared indexes: table name -> {column -> kind}.  Specs survive
        #: re-registration; the structures are rebuilt against the new table.
        self._index_specs: dict[str, dict[str, str]] = {}
        self._indexes: dict[str, dict[str, Index]] = {}

    def register(self, name: str, table: Table) -> None:
        """Add or replace a table in the catalog.

        Index structures declared with :meth:`create_index` are rebuilt
        against the new table; specs whose column disappeared are dropped
        with a warning.  ANALYZE statistics are kept but become stale
        (see :meth:`stats_state`).
        """
        self._catalog[name] = table
        specs = self._index_specs.get(name)
        if not specs:
            return
        rebuilt: dict[str, Index] = {}
        for column, kind in list(specs.items()):
            if column not in table:
                logger.warning(
                    "dropping index on %s.%s: column no longer exists", name, column
                )
                del specs[column]
                continue
            rebuilt[column] = build_index(table, column, kind)
        self._indexes[name] = rebuilt

    def table_names(self) -> tuple[str, ...]:
        """Names of registered tables, sorted."""
        return tuple(sorted(self._catalog))

    # -- statistics and indexes ------------------------------------------------

    def analyze(self, table: str | None = None) -> Table:
        """Collect optimizer statistics (the ``ANALYZE [table]`` statement).

        Returns a per-column summary table; the statistics are kept for
        cost-based planning until the table is replaced (then marked
        stale: value distributions are reused as ratios against the
        current row count).
        """
        obs.counter("sql.analyze")
        names = [table] if table is not None else list(self.table_names())
        rows: list[dict[str, Any]] = []
        for name in names:
            target = self._lookup(name)
            stats = target.statistics(refresh=True)
            self._analyzed[name] = (target, stats)
            for column in target.column_names:
                cs = stats.column(column)
                top_value, top_count = (None, None)
                if cs is not None and cs.most_common:
                    top_value = _display(cs.most_common[0][0])
                    top_count = cs.most_common[0][1]
                rows.append(
                    {
                        "table": name,
                        "column": column,
                        "kind": cs.kind if cs is not None else "?",
                        "rows": stats.row_count,
                        "nulls": cs.n_null if cs is not None else 0,
                        "distinct": cs.n_distinct if cs is not None else 0,
                        "min": _display(cs.min_value) if cs is not None else None,
                        "max": _display(cs.max_value) if cs is not None else None,
                        "top_value": top_value,
                        "top_count": 0 if top_count is None else top_count,
                    }
                )
        if not rows:
            return Table(
                {
                    "table": [],
                    "column": [],
                    "kind": [],
                    "rows": [],
                    "nulls": [],
                    "distinct": [],
                    "min": [],
                    "max": [],
                    "top_value": [],
                    "top_count": [],
                }
            )
        data = {key: [row[key] for row in rows] for key in rows[0]}
        return Table(data)

    def create_index(self, table: str, column: str, kind: str = "auto") -> Index:
        """Build a secondary index over ``table.column``.

        ``kind`` is ``"sorted"``, ``"hash"`` or ``"auto"`` (hash for
        strings, sorted otherwise).  The index is maintained across
        :meth:`register` calls for the same table name.
        """
        target = self._lookup(table)
        index = build_index(target, column, kind)
        self._index_specs.setdefault(table, {})[column] = index.kind
        self._indexes.setdefault(table, {})[column] = index
        obs.counter("sql.create_index")
        return index

    def index_specs(self, table: str) -> dict[str, str]:
        """Declared indexes for ``table`` as ``{column: kind}``."""
        return dict(self._index_specs.get(table, {}))

    def stats_state(self, table: str) -> str:
        """``"fresh"``, ``"stale"`` or ``"absent"`` statistics for ``table``."""
        entry = self._analyzed.get(table)
        if entry is None:
            return "absent"
        return "fresh" if entry[0] is self._catalog.get(table) else "stale"

    def _source_info(self, ref: TableRef) -> SourceInfo:
        """What the planner may assume about one catalog table."""
        table = self._lookup(ref.name)
        entry = self._analyzed.get(ref.name)
        return SourceInfo(
            rows=table.num_rows,
            columns=tuple(table.column_names),
            column_kinds={name: table.column(name).kind for name in table.column_names},
            stats=entry[1] if entry is not None else None,
            stats_state=self.stats_state(ref.name),
            indexes={
                column: index.kind
                for column, index in self._indexes.get(ref.name, {}).items()
            },
        )

    def _build(self, statement: Select | Union) -> PlanNode:
        """The operator tree for ``statement`` (naive without the optimizer)."""
        options = self.options if self.optimizer_enabled else None
        return build(statement, self._source_info, options)

    def execute(self, sql: str) -> Table:
        """Parse, plan and execute one statement (SELECT, UNION ALL, ANALYZE)."""
        with obs.span("sql.query"):
            obs.counter("sql.queries")
            statement = parse(sql)
            if isinstance(statement, Analyze):
                return self.analyze(statement.table)
            return self._run_tree(self._build(statement), analyze=False)

    def explain_analyze(self, sql: str) -> tuple[Table, PlanNode]:
        """Execute ``sql`` with per-operator instrumentation.

        Returns the result table plus the root :class:`PlanNode` of the
        measured plan tree (wall time and rows in/out per operator),
        rendered by :func:`repro.sql.analyze.format_plan`.
        """
        root, parse_node = PlanNode("Query"), PlanNode("Parse")
        root.children.append(parse_node)
        with measure(root, True):
            with measure(parse_node, True):
                statement = parse(sql)
            if isinstance(statement, Analyze):
                tree = PlanNode("Analyze", statement.table or "all tables")
                with measure(tree, True):
                    result = self.analyze(statement.table)
                    tree.rows_out = result.num_rows
            else:
                plan_node = PlanNode("Plan")
                root.children.append(plan_node)
                with measure(plan_node, True):
                    tree = self._build(statement)
                result = self._run_tree(tree, analyze=True)
            root.children.append(tree)
            root.rows_out = result.num_rows
        return result, root

    def explain(self, sql: str) -> str:
        """Return a human-readable summary of the query plan.

        With the optimizer enabled the logical summary is followed by the
        operator tree (access paths, join strategies and estimated rows
        per operator) rendered without timings.
        """
        statement = parse(sql)
        if isinstance(statement, Analyze):
            target = statement.table or "all registered tables"
            return (
                f"ANALYZE {target}\n"
                "COLLECT row count, per-column distinct/null counts, "
                "min/max and most-common values"
            )
        tree = self._build(statement)
        if isinstance(tree, SelectNode):
            lines = _summary(tree)
        else:
            lines = [f"UNION ALL of {len(tree.children)} selects"]
        if self.optimizer_enabled:
            lines.append("")
            lines.append("-- physical plan (estimated rows) --")
            lines.append(format_plan(tree, include_time=False))
        return "\n".join(lines)

    # -- operators ----------------------------------------------------------------
    #
    # Execution walks the tree: each operator reads its input from and
    # writes its output to a ``_Frame``, and ``_run`` wraps every one in
    # the same timing, spill and tracing bookkeeping.

    def _run_tree(self, tree: PlanNode, analyze: bool) -> Table:
        frame = _Frame(analyze)
        self._run(tree, frame)
        return frame.result

    def _run(self, node: PlanNode, frame: "_Frame") -> None:
        with measure(node, frame.analyze):
            _OPERATORS[type(node)](self, node, frame)

    def _run_select(self, node: SelectNode, frame: "_Frame") -> None:
        inner = _Frame(frame.analyze)
        for stage in node.children:
            self._run(stage, inner)
        node.rows_out = inner.result.num_rows
        if node.op == "Subquery":
            frame.scope = _Scope.single(node.detail, inner.result)
        else:
            frame.result = inner.result

    def _run_union(self, node: UnionAllNode, frame: "_Frame") -> None:
        parts = [self._run_tree(member, frame.analyze) for member in node.children]
        schema = parts[0].schema
        for part in parts[1:]:
            if part.schema != schema:
                raise SqlPlanError(
                    "UNION ALL members must produce identical schemas: "
                    f"{part.schema} vs {schema}"
                )
        frame.result = concat(parts)
        node.rows_out = frame.result.num_rows

    def _run_scan(self, node: ScanNode, frame: "_Frame") -> None:
        table = self._lookup(node.table_name)
        if node.access != "seq":
            index = self._indexes[node.table_name][node.index_column]
            if node.access == "index-eq":
                rows = index.lookup_eq(node.index_value)
            else:
                rows = index.lookup_range(
                    node.index_low,
                    node.index_high,
                    node.index_include_low,
                    node.index_include_high,
                )
            table = table.take(rows)
        if node.columns is not None:
            table = table.select(list(node.columns))
        node.rows_out = table.num_rows
        # Raw size of the column buffers the scan materializes.
        node.bytes_scanned = int(sum(table.column(c).values.nbytes for c in table.column_names))
        frame.scope = _Scope.single(node.binding, table)

    def _run_filter(self, node: FilterNode, frame: "_Frame") -> None:
        scope = frame.scope
        table = scope.table
        mask = _as_bool_mask(_evaluate(node.predicate, table, scope), table.num_rows)
        frame.scope = scope.with_table(table.filter(mask))
        node.rows_in = table.num_rows
        node.rows_out = frame.scope.table.num_rows

    def _run_join(self, node: JoinNode, frame: "_Frame") -> None:
        left, right = _Frame(frame.analyze), _Frame(frame.analyze)
        for i, child in enumerate(node.children):
            self._run(child, left if i < node.n_left else right)
        left_qualified = left.scope.qualified()
        right_qualified = right.scope.qualified()
        join = node.join
        left_key = left_qualified.resolve(join.on_left)
        right_key = right_qualified.resolve(join.on_right)
        if node.strategy == "index":
            index = self._indexes[node.index_table][node.index_column]
            joined = _index_join(
                left_qualified.table, left_key, right_qualified.table, index, join.kind
            )
        else:
            # Hash and sort-merge share one pair kernel, so the planner's
            # choice never changes the output.
            left_table, right_table = left_qualified.table, right_qualified.table
            left_rows, right_rows = join_pairs(
                left_table[left_key], right_table[right_key], join.kind
            )
            joined = _assemble_join(left_table, right_table, left_rows, right_rows)
        node.rows_out = joined.num_rows
        frame.scope = _Scope(joined, None, is_join=True)

    def _run_project(self, node: ProjectNode, frame: "_Frame") -> None:
        scope = frame.scope
        table = scope.table
        if not node.outputs:
            frame.result = scope.star_projection(table)
        else:
            frame.result = Table({
                name: _to_column(_evaluate(expr, table, scope), table.num_rows)
                for name, expr in node.outputs
            })
        node.rows_out = frame.result.num_rows

    def _run_distinct(self, node: DistinctNode, frame: "_Frame") -> None:
        node.rows_in = frame.result.num_rows
        if frame.result.num_rows:
            frame.result = frame.result.distinct()
        node.rows_out = frame.result.num_rows

    def _run_limit(self, node: LimitNode, frame: "_Frame") -> None:
        node.rows_in = frame.result.num_rows
        start = node.offset or 0
        stop = None if node.limit is None else start + node.limit
        frame.result = frame.result.slice(start, stop)
        node.rows_out = frame.result.num_rows

    def _lookup(self, name: str) -> Table:
        try:
            return self._catalog[name]
        except KeyError:
            known = ", ".join(sorted(self._catalog)) or "<none>"
            raise SqlPlanError(f"unknown table {name!r}; registered tables: {known}") from None

    # -- aggregation --------------------------------------------------------------

    def _run_aggregate(self, node: AggregateNode, frame: "_Frame") -> None:
        scope = frame.scope
        table = scope.table
        n_rows = table.num_rows
        group_exprs = _resolve_group_keys(node, scope)
        key_arrays = [
            _broadcast(_evaluate(expr, table, scope), n_rows)
            for expr in group_exprs
        ]
        env: dict[Expr, np.ndarray] | None = None
        if group_exprs and self._parallel_eligible(node, n_rows):
            env, n_groups = self._parallel_aggregation(
                node, table, scope, group_exprs, key_arrays, frame.analyze
            )
        if env is None:
            if group_exprs:
                group_ids, first = factorize(key_arrays)
                n_groups = len(first)
            else:
                group_ids = np.zeros(n_rows, dtype=np.int64)
                n_groups = 1
            env = {}
            for expr, keys in zip(group_exprs, key_arrays):
                env[expr] = keys[first]
            for aggregate in node.aggregates:
                env[aggregate] = _evaluate_aggregate(
                    aggregate, table, scope, group_ids, n_groups
                )
        if node.having is not None:
            having_expr = _resolve_aliases(node.having, dict(node.outputs))
            mask_values = _evaluate_grouped(having_expr, env, n_groups)
            mask = _as_bool_mask(mask_values, n_groups)
            keep = np.flatnonzero(mask)
        else:
            keep = np.arange(n_groups)
        data: dict[str, Column] = {}
        for name, expr in node.outputs:
            values = _broadcast(_evaluate_grouped(expr, env, n_groups), n_groups)
            data[name] = _to_column(values[keep], len(keep))
        frame.result = Table(data)
        # ORDER BY over aggregate expressions reads the group environment.
        frame.groups = (env, keep, n_groups)
        node.rows_in = n_rows
        node.rows_out = frame.result.num_rows

    def _parallel_eligible(self, node: AggregateNode, n_rows: int) -> bool:
        """Whether this aggregation can run as partial/final over partitions."""
        if self.workers < 2 or n_rows < _PARALLEL_MIN_ROWS:
            return False
        for aggregate in node.aggregates:
            if aggregate.distinct or aggregate.func not in _PARALLEL_FUNCS:
                return False
        return True

    def _parallel_aggregation(
        self,
        node: AggregateNode,
        table: Table,
        scope: "_Scope",
        group_exprs: tuple[Expr, ...],
        key_arrays: list[np.ndarray],
        analyze: bool,
    ) -> tuple[dict[Expr, np.ndarray], int]:
        """Partitioned scan + parallel partial aggregate + in-order finalize.

        Rows are split into contiguous partitions; each worker scans its
        slice of the already-evaluated key/argument columns, groups it
        locally in first-appearance order, and returns mergeable partial
        states.  The coordinator factorizes the partitions' local keys
        concatenated **in partition order**, which numbers every group
        where it first appears over all rows, exactly as the serial
        ``factorize`` does (NULL keys included), then folds the partials
        into final values.  The Aggregate node gains one ``ParallelScan``
        + ``PartialAggregate`` child pair per partition (worker-measured
        times) and a ``FinalizeAggregate`` merge child.
        """
        n_rows = table.num_rows
        n_workers = self.workers
        funcs = tuple(a.func for a in node.aggregates)
        agg_arrays = [
            None
            if a.argument is None
            else np.asarray(_broadcast(_evaluate(a.argument, table, scope), n_rows))
            for a in node.aggregates
        ]
        ranges = shard_ranges(n_rows, n_workers)
        obs.counter("sql.parallel_aggregate")
        with WorkerPool(n_workers, payload=(key_arrays, agg_arrays)) as pool:
            parts = pool.map_shards(
                _work.sql_partial_aggregate,
                [(lo, hi, funcs) for lo, hi in ranges],
            )
        sizes = [len(part["keys"][0]) for part in parts]
        for i, ((lo, hi), part, size) in enumerate(zip(ranges, parts, sizes)):
            node.children.append(PlanNode(
                "ParallelScan", f"partition={i} rows[{lo}:{hi}]",
                rows_out=part["rows"], seconds=part["scan_seconds"],
            ))
            node.children.append(PlanNode(
                "PartialAggregate", f"partition={i}", rows_in=part["rows"],
                rows_out=size, seconds=part["agg_seconds"],
            ))
        finalize = PlanNode("FinalizeAggregate", f"partitions={len(parts)} workers={n_workers}")
        node.children.append(finalize)
        with measure(finalize, analyze):
            keys = [
                np.concatenate([part["keys"][k] for part in parts])
                for k in range(len(group_exprs))
            ]
            codes, first = factorize(keys)
            n_groups = len(first)
            remaps = np.split(codes, np.cumsum(sizes)[:-1])
            env: dict[Expr, np.ndarray] = {
                expr: keys[k][first] for k, expr in enumerate(group_exprs)
            }
            for i, aggregate in enumerate(node.aggregates):
                env[aggregate] = _merge_partials(
                    funcs[i],
                    agg_arrays[i],
                    [part["partials"][i] for part in parts],
                    remaps,
                    n_groups,
                )
            finalize.rows_in = sum(sizes)
            finalize.rows_out = n_groups
        return env, n_groups

    # -- ORDER BY ---------------------------------------------------------------

    def _run_sort(self, node: SortNode, frame: "_Frame") -> None:
        result = frame.result
        scope = frame.scope
        table = scope.table
        sort_arrays: list[np.ndarray] = []
        flags: list[bool] = []
        alias_map = dict(node.outputs)
        for item in node.keys:
            expr = item.expr
            output = _find_output(expr, node.outputs)
            if isinstance(expr, Literal) and isinstance(expr.value, int):
                index = expr.value - 1
                if not 0 <= index < result.num_columns:
                    raise SqlPlanError(
                        f"ORDER BY position {expr.value} out of range"
                    )
                values = result[result.column_names[index]]
            elif isinstance(expr, ColumnRef) and expr.table is None and expr.name in result:
                values = result[expr.name]
            elif output is not None:
                values = result[output]
            elif frame.groups is not None:
                env, keep, n_groups = frame.groups
                resolved = _resolve_aliases(expr, alias_map)
                values = _broadcast(
                    _evaluate_grouped(resolved, env, n_groups), n_groups
                )[keep]
            else:
                if node.distinct:
                    raise SqlPlanError(
                        "ORDER BY with DISTINCT must reference output columns"
                    )
                values = _broadcast(_evaluate(expr, table, scope), table.num_rows)
            if len(values) != result.num_rows:
                raise SqlExecutionError("ORDER BY expression length mismatch")
            sort_arrays.append(np.asarray(values))
            flags.append(item.descending)
        codes = []
        for values, descending in zip(sort_arrays, flags):
            code = _order_codes(values)
            codes.append(-code if descending else code)
        order = np.lexsort(list(reversed(codes)))
        frame.result = result.take(order)
        node.rows_out = frame.result.num_rows


#: The method that runs each operator kind.
_OPERATORS: dict[type, Any] = {
    SelectNode: QueryEngine._run_select,
    UnionAllNode: QueryEngine._run_union,
    ScanNode: QueryEngine._run_scan,
    FilterNode: QueryEngine._run_filter,
    JoinNode: QueryEngine._run_join,
    AggregateNode: QueryEngine._run_aggregate,
    ProjectNode: QueryEngine._run_project,
    DistinctNode: QueryEngine._run_distinct,
    SortNode: QueryEngine._run_sort,
    LimitNode: QueryEngine._run_limit,
}


class _Frame:
    """What one pipeline's operators hand each other.

    ``scope`` is the FROM output (filters replace its table), ``result``
    the output rows once Aggregate or Project ran, and ``groups`` the
    Aggregate's ``(env, kept groups, n_groups)`` for ORDER BY.
    """

    __slots__ = ("analyze", "scope", "result", "groups")
    scope: "_Scope"
    result: Table
    groups: tuple[dict[Expr, np.ndarray], np.ndarray, int] | None

    def __init__(self, analyze: bool) -> None:
        self.analyze = analyze
        self.groups = None


def _summary(node: SelectNode) -> list[str]:
    """EXPLAIN's logical summary of one SELECT."""
    select = node.select
    lines = ["FROM " + " JOIN ".join(t.binding for t in source_tables(select.source))]
    if select.where is not None:
        lines.append("WHERE <predicate>")
    lines.extend(
        f"AGGREGATE {stage.detail}" for stage in node.children if isinstance(stage, AggregateNode)
    )
    if select.having is not None:
        lines.append("HAVING <predicate>")
    lines.append(f"PROJECT {list(node.output_names) or '*'}")
    if select.distinct:
        lines.append("DISTINCT")
    if select.order_by:
        lines.append(f"ORDER BY {len(select.order_by)} key(s)")
    if select.limit is not None:
        lines.append(f"LIMIT {select.limit} OFFSET {select.offset or 0}")
    return lines


# -- scope -----------------------------------------------------------------------


class _Scope:
    """Column-name resolution for the current FROM clause.

    For a single table the physical names are the original column names.
    After a join every physical name is ``binding.column`` and unqualified
    references resolve when exactly one binding has the column.
    """

    def __init__(self, table: Table, binding: str | None, is_join: bool) -> None:
        self.table = table
        self._binding = binding
        self._is_join = is_join

    @classmethod
    def single(cls, binding: str, table: Table) -> "_Scope":
        """Scope over one physical or derived table."""
        return cls(table, binding, is_join=False)

    def with_table(self, table: Table) -> "_Scope":
        """This scope over ``table``, a row subset of the current one."""
        return _Scope(table, self._binding, self._is_join)

    def qualified(self) -> "_Scope":
        """Return this scope with every physical column qualified."""
        if self._is_join:
            return self
        renamed = self.table.rename(
            {name: f"{self._binding}.{name}" for name in self.table.column_names}
        )
        return _Scope(renamed, None, is_join=True)

    def resolve(self, ref: ColumnRef) -> str:
        """Map a column reference to a physical column name."""
        if not self._is_join:
            if ref.table is not None and ref.table != self._binding:
                raise SqlPlanError(f"unknown table qualifier {ref.table!r}")
            if ref.name not in self.table:
                raise SqlPlanError(f"unknown column {ref.display!r}")
            return ref.name
        if ref.table is not None:
            physical = f"{ref.table}.{ref.name}"
            if physical not in self.table:
                raise SqlPlanError(f"unknown column {ref.display!r}")
            return physical
        matches = [
            name
            for name in self.table.column_names
            if name.rsplit(".", 1)[-1] == ref.name
        ]
        if not matches:
            raise SqlPlanError(f"unknown column {ref.name!r}")
        if len(matches) > 1:
            raise SqlPlanError(f"ambiguous column {ref.name!r}: {matches}")
        return matches[0]

    def star_projection(self, table: Table) -> Table:
        """Project all columns, unqualifying join columns where unambiguous."""
        if not self._is_join:
            return table
        renames: dict[str, str] = {}
        short_names = [name.rsplit(".", 1)[-1] for name in table.column_names]
        for name, short in zip(table.column_names, short_names):
            if short_names.count(short) == 1:
                renames[name] = short
        return table.rename(renames)


def join_pairs(
    left_keys: np.ndarray, right_keys: np.ndarray, how: str
) -> tuple[np.ndarray, np.ndarray]:
    """Row pairs of an equality join, in canonical ``(left row, right row)`` order.

    Keys match under dict-lookup equality.  Numeric keys of one kind are
    their own order codes, with NaN never matching; object keys and mixed
    int/float keys are coded through one dict over their Python values
    (``None`` matches ``None``, ``1`` matches ``1.0``).  Each left code
    takes its run of the stably sorted right codes, so every left row
    lists its matches in ascending right-row order.  A LEFT JOIN miss
    pairs with ``-1``.
    """
    left_codes, right_codes, unmatchable = _join_codes(left_keys, right_keys)
    order = np.argsort(right_codes, kind="stable")
    sorted_codes = right_codes[order]
    lo = np.searchsorted(sorted_codes, left_codes, side="left")
    hi = np.searchsorted(sorted_codes, left_codes, side="right")
    matches = np.where(unmatchable, 0, hi - lo)
    emit = np.maximum(matches, 1) if how == "left" else matches
    left_rows = np.repeat(np.arange(left_codes.shape[0], dtype=np.int64), emit)
    # Position of each output pair within its left row's run.
    rank = np.arange(left_rows.shape[0], dtype=np.int64) - np.repeat(np.cumsum(emit) - emit, emit)
    hit = np.repeat(matches > 0, emit)
    right_rows = np.full(left_rows.shape[0], -1, dtype=np.int64)
    right_rows[hit] = order[np.repeat(lo, emit)[hit] + rank[hit]]
    return left_rows, right_rows


def _join_codes(
    left_keys: np.ndarray, right_keys: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray | bool]:
    """Sortable equality codes for both key columns, and the left rows that never match.

    A right NaN sorts after every number, so only left NaNs need masking.
    """
    kind = left_keys.dtype.kind
    if kind in "biuf" and right_keys.dtype.kind == kind:
        return left_keys, right_keys, np.isnan(left_keys) if kind == "f" else False
    # Fresh Python floats from tolist() keep NaN unequal to every key.
    codes, _ = dict_codes(left_keys.tolist() + right_keys.tolist())
    return codes[: left_keys.shape[0]], codes[left_keys.shape[0] :], False


def _index_join(
    left: Table, left_key: str, right: Table, index: Any, how: str
) -> Table:
    """Index nested-loop join probing a right-side secondary index.

    ``index`` was built over the right base table, whose row positions the
    planner guarantees are still valid (sequential scan, no pushed
    filters).  ``lookup_join`` uses dict-equality semantics and returns
    ascending positions, so the output is naturally in canonical order.
    """
    left_rows: list[int] = []
    right_rows: list[int] = []
    for i, value in enumerate(left.column(left_key).to_list()):
        matches = index.lookup_join(value)
        if len(matches):
            left_rows.extend([i] * len(matches))
            right_rows.extend(int(j) for j in matches)
        elif how == "left":
            left_rows.append(i)
            right_rows.append(-1)
    return _assemble_join(left, right, left_rows, right_rows)


def _assemble_join(left: Table, right: Table, left_rows: Any, right_rows: Any) -> Table:
    """Materialize join output from matched row-index pairs.

    ``right_rows == -1`` marks a LEFT JOIN miss: right columns widen to
    NULL (``None`` for strings, NaN for numerics) on those rows.
    """
    left_part = left.take(np.asarray(left_rows, dtype=np.int64))
    right_idx = np.asarray(right_rows, dtype=np.int64)
    missing = right_idx < 0
    safe_idx = np.where(missing, 0, right_idx)
    data = {name: left_part.column(name) for name in left_part.column_names}
    for name in right.column_names:
        column = right.column(name)
        if right.num_rows == 0:
            data[name] = Column(np.full(len(right_idx), np.nan), "float")
            continue
        taken = column.values[safe_idx]
        if missing.any():
            if column.kind == "str":
                taken = taken.copy()
                taken[missing] = None
                data[name] = Column(taken, "str")
            else:
                values = taken.astype(np.float64)
                values[missing] = np.nan
                data[name] = Column(values, "float")
        else:
            data[name] = Column(taken, column.kind)
    return Table(data)


# -- expression evaluation ----------------------------------------------------------


def _evaluate(expr: Expr, table: Table, scope: _Scope) -> Any:
    """Evaluate ``expr`` against table rows; returns an array or a scalar."""
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, ColumnRef):
        return table[scope.resolve(expr)]
    if isinstance(expr, Unary):
        return _apply_unary(expr.op, _evaluate(expr.operand, table, scope))
    if isinstance(expr, Binary):
        return _apply_binary(
            expr.op,
            _evaluate(expr.left, table, scope),
            lambda: _evaluate(expr.right, table, scope),
            expr,
        )
    if isinstance(expr, Between):
        value = _evaluate(expr.operand, table, scope)
        low = _evaluate(expr.low, table, scope)
        high = _evaluate(expr.high, table, scope)
        mask = np.logical_and(
            _compare(">=", value, low), _compare("<=", value, high)
        )
        return np.logical_not(mask) if expr.negated else mask
    if isinstance(expr, InList):
        value = _evaluate(expr.operand, table, scope)
        items = [_evaluate(item, table, scope) for item in expr.items]
        return _in_list(value, items, expr.negated)
    if isinstance(expr, IsNull):
        value = _evaluate(expr.operand, table, scope)
        mask = _is_null(value, table.num_rows)
        return np.logical_not(mask) if expr.negated else mask
    if isinstance(expr, FunctionCall):
        args = tuple(_evaluate(arg, table, scope) for arg in expr.args)
        return call_scalar_function(expr.name, args)
    if isinstance(expr, Case):
        return _apply_case(expr, lambda e: _evaluate(e, table, scope), table.num_rows)
    if isinstance(expr, Aggregate):
        raise SqlPlanError("aggregate functions are not allowed in this context")
    raise SqlPlanError(f"cannot evaluate expression node {type(expr).__name__}")


def _evaluate_grouped(expr: Expr, env: dict[Expr, np.ndarray], n_groups: int) -> Any:
    """Evaluate ``expr`` per group; columns must come through ``env``."""
    if expr in env:
        return env[expr]
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, ColumnRef):
        raise SqlPlanError(
            f"column {expr.display!r} must appear in GROUP BY or inside an aggregate"
        )
    if isinstance(expr, Unary):
        return _apply_unary(expr.op, _evaluate_grouped(expr.operand, env, n_groups))
    if isinstance(expr, Binary):
        return _apply_binary(
            expr.op,
            _evaluate_grouped(expr.left, env, n_groups),
            lambda: _evaluate_grouped(expr.right, env, n_groups),
            expr,
        )
    if isinstance(expr, Between):
        value = _evaluate_grouped(expr.operand, env, n_groups)
        low = _evaluate_grouped(expr.low, env, n_groups)
        high = _evaluate_grouped(expr.high, env, n_groups)
        mask = np.logical_and(_compare(">=", value, low), _compare("<=", value, high))
        return np.logical_not(mask) if expr.negated else mask
    if isinstance(expr, InList):
        value = _evaluate_grouped(expr.operand, env, n_groups)
        items = [_evaluate_grouped(item, env, n_groups) for item in expr.items]
        return _in_list(value, items, expr.negated)
    if isinstance(expr, IsNull):
        value = _evaluate_grouped(expr.operand, env, n_groups)
        mask = _is_null(value, n_groups)
        return np.logical_not(mask) if expr.negated else mask
    if isinstance(expr, FunctionCall):
        args = tuple(_evaluate_grouped(arg, env, n_groups) for arg in expr.args)
        return call_scalar_function(expr.name, args)
    if isinstance(expr, Case):
        return _apply_case(expr, lambda e: _evaluate_grouped(e, env, n_groups), n_groups)
    raise SqlPlanError(f"cannot evaluate expression node {type(expr).__name__}")


def _evaluate_aggregate(
    aggregate: Aggregate,
    table: Table,
    scope: _Scope,
    group_ids: np.ndarray,
    n_groups: int,
) -> np.ndarray:
    if aggregate.argument is None:  # COUNT(*)
        return np.bincount(group_ids, minlength=n_groups).astype(np.int64)
    values = _broadcast(
        _evaluate(aggregate.argument, table, scope), table.num_rows
    )
    values = np.asarray(values)
    if aggregate.func == "COUNT":
        non_null = ~_is_null(values, len(values))
        rows = np.flatnonzero(non_null)
        if aggregate.distinct:
            return grouped_aggregate(
                values[rows], group_ids[rows], n_groups, "count_distinct"
            )
        return np.bincount(group_ids[rows], minlength=n_groups).astype(np.int64)
    func = AGGREGATE_FUNCTIONS[aggregate.func]
    return grouped_aggregate(values, group_ids, n_groups, func)


# -- operator helpers ----------------------------------------------------------------


def _apply_unary(op: str, value: Any) -> Any:
    if op == "-":
        if isinstance(value, np.ndarray) and value.dtype == object:
            raise SqlExecutionError("cannot negate a string value")
        return -value  # numpy handles arrays and scalars alike
    if op == "NOT":
        return np.logical_not(value)
    raise SqlPlanError(f"unknown unary operator {op!r}")


def _apply_binary(op: str, left: Any, right_thunk: Any, node: Binary) -> Any:
    right = right_thunk()
    if op in ("AND", "OR"):
        fn = np.logical_and if op == "AND" else np.logical_or
        return fn(left, right)
    if op in ("=", "!=", "<", "<=", ">", ">="):
        return _compare(op, left, right)
    if op == "LIKE":
        if not isinstance(right, str):
            raise SqlPlanError("LIKE pattern must be a string literal")
        return like_match(left, right)
    if op in ("+", "-", "*", "/", "%"):
        return _arithmetic(op, left, right)
    raise SqlPlanError(f"unknown binary operator {op!r}")


def _arithmetic(op: str, left: Any, right: Any) -> Any:
    for side in (left, right):
        if isinstance(side, str) or (
            isinstance(side, np.ndarray) and side.dtype == object
        ):
            raise SqlExecutionError(f"operator {op!r} is not defined for strings")
    if op in ("/", "%"):
        divisor = np.asarray(right)
        if np.any(divisor == 0):
            raise SqlExecutionError("division by zero")
    if op == "+":
        return np.add(left, right)
    if op == "-":
        return np.subtract(left, right)
    if op == "*":
        return np.multiply(left, right)
    if op == "/":
        return np.divide(left, right)
    return np.mod(left, right)


def _compare(op: str, left: Any, right: Any) -> np.ndarray:
    left_is_obj = isinstance(left, np.ndarray) and left.dtype == object
    right_is_obj = isinstance(right, np.ndarray) and right.dtype == object
    if left_is_obj or right_is_obj or isinstance(left, str) or isinstance(right, str):
        return _compare_object(op, left, right)
    ops = {
        "=": np.equal,
        "!=": np.not_equal,
        "<": np.less,
        "<=": np.less_equal,
        ">": np.greater,
        ">=": np.greater_equal,
    }
    return ops[op](left, right)


def _compare_object(op: str, left: Any, right: Any) -> np.ndarray:
    import operator as _operator

    note_spill(
        len(left) if isinstance(left, np.ndarray) else len(right)
    )

    ops = {
        "=": _operator.eq,
        "!=": _operator.ne,
        "<": _operator.lt,
        "<=": _operator.le,
        ">": _operator.gt,
        ">=": _operator.ge,
    }
    fn = ops[op]
    left_arr = left if isinstance(left, np.ndarray) else None
    right_arr = right if isinstance(right, np.ndarray) else None
    length = len(left_arr) if left_arr is not None else len(right_arr)
    if length >= _OBJECT_COMPARE_WARN_ROWS:
        obs.counter("sql.object_compare_fallback")
        logger.warning(
            "object-dtype %r comparison fell back to a Python row loop "
            "over %d rows; consider filtering earlier or comparing numerics",
            op, length,
        )
    out = np.empty(length, dtype=bool)
    for i in range(length):
        lhs = left_arr[i] if left_arr is not None else left
        rhs = right_arr[i] if right_arr is not None else right
        if lhs is None or rhs is None:
            out[i] = False if op != "!=" else True
            continue
        try:
            out[i] = bool(fn(lhs, rhs))
        except TypeError as exc:
            raise SqlExecutionError(
                f"cannot compare {type(lhs).__name__} with {type(rhs).__name__}"
            ) from exc
    return out


def _in_list(value: Any, items: list[Any], negated: bool) -> np.ndarray:
    if any(isinstance(item, np.ndarray) for item in items):
        raise SqlPlanError("IN list items must be scalar expressions")
    array = np.asarray(value) if not isinstance(value, np.ndarray) else value
    if array.dtype == object:
        allowed = set(items)
        mask = np.asarray([v in allowed for v in array], dtype=bool)
    else:
        mask = np.isin(array, items)
    return np.logical_not(mask) if negated else mask


def _is_null(value: Any, length: int) -> np.ndarray:
    if isinstance(value, np.ndarray):
        if value.dtype == object:
            return np.asarray([v is None for v in value], dtype=bool)
        if np.issubdtype(value.dtype, np.floating):
            return np.isnan(value)
        return np.zeros(value.shape[0], dtype=bool)
    if value is None:
        return np.ones(length, dtype=bool)
    if isinstance(value, float) and np.isnan(value):
        return np.ones(length, dtype=bool)
    return np.zeros(length, dtype=bool)


def _apply_case(expr: Case, evaluate: Any, length: int) -> np.ndarray:
    default = evaluate(expr.default) if expr.default is not None else None
    values = [evaluate(value) for _, value in expr.whens]
    conditions = [
        _as_bool_mask(evaluate(condition), length) for condition, _ in expr.whens
    ]
    use_object = any(
        isinstance(v, str)
        or (isinstance(v, np.ndarray) and v.dtype == object)
        for v in values + [default]
    ) or default is None
    if use_object:
        out = np.empty(length, dtype=object)
        out[:] = None
    else:
        out = np.empty(length, dtype=np.float64)
    out[:] = _broadcast(default, length) if default is not None else out[:]
    # Apply whens in reverse so the FIRST matching branch wins.
    for condition, value in zip(reversed(conditions), reversed(values)):
        broadcast_value = _broadcast(value, length)
        out[condition] = broadcast_value[condition]
    return out


# -- small utilities -------------------------------------------------------------------


def _display(value: Any) -> str | None:
    """Render an ANALYZE summary value as a string (None stays NULL)."""
    if value is None:
        return None
    if isinstance(value, float) and not isinstance(value, bool):
        if not np.isfinite(value):
            return str(value)
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
    return str(value)


def _broadcast(value: Any, length: int) -> np.ndarray:
    if isinstance(value, np.ndarray):
        if value.shape[0] != length:
            raise SqlExecutionError(
                f"expression produced {value.shape[0]} rows, expected {length}"
            )
        return value
    if isinstance(value, str) or value is None:
        out = np.empty(length, dtype=object)
        out[:] = value
        return out
    return np.full(length, value)


def _as_bool_mask(value: Any, length: int) -> np.ndarray:
    array = _broadcast(value, length)
    if array.dtype == object:
        return np.asarray([bool(v) for v in array], dtype=bool)
    if array.dtype != np.bool_:
        raise SqlExecutionError("predicate did not evaluate to a boolean")
    return array


def _to_column(value: Any, length: int) -> Column:
    array = _broadcast(value, length)
    if array.dtype == object:
        return Column(array, "str") if _all_str_or_none(array) else Column(array.tolist())
    return Column(array)


def _all_str_or_none(array: np.ndarray) -> bool:
    return all(v is None or isinstance(v, str) for v in array)


def _merge_partials(
    func: str,
    values: np.ndarray | None,
    partials: list,
    remaps: list[np.ndarray],
    n_groups: int,
) -> np.ndarray:
    """Fold per-partition partial aggregate states into final group values.

    ``remaps[p]`` maps partition ``p``'s local group ids to global ids;
    within one partition the global ids are distinct, so fancy-indexed
    accumulation is safe.  COUNT merges exactly; SUM/AVG add partial sums
    in partition order (last-ulp float reassociation vs serial); MIN/MAX
    merge via ``np.minimum``/``np.maximum`` (NaN-propagating, matching the
    serial per-group ``min()``/``max()``).
    """
    if values is None or func == "COUNT":
        total = np.zeros(n_groups, dtype=np.int64)
        for part, remap in zip(partials, remaps):
            total[remap] += part
        return total
    if func == "SUM":
        sums = np.zeros(n_groups, dtype=np.float64)
        for part, remap in zip(partials, remaps):
            sums[remap] += part
        if np.issubdtype(values.dtype, np.integer):
            return sums.astype(np.int64)
        return sums
    if func == "AVG":
        sums = np.zeros(n_groups, dtype=np.float64)
        counts = np.zeros(n_groups, dtype=np.int64)
        for (part_sums, part_counts), remap in zip(partials, remaps):
            sums[remap] += part_sums
            counts[remap] += part_counts
        return np.where(counts > 0, sums / np.maximum(counts, 1), np.nan)
    if func in ("MIN", "MAX"):
        out = np.empty(n_groups, dtype=partials[0].dtype)
        seen = np.zeros(n_groups, dtype=bool)
        for part, remap in zip(partials, remaps):
            if out.dtype == object:
                for j, gid in enumerate(remap):
                    value = part[j]
                    if not seen[gid]:
                        out[gid] = value
                    elif func == "MIN":
                        out[gid] = min(out[gid], value)
                    else:
                        out[gid] = max(out[gid], value)
            else:
                new = ~seen[remap]
                out[remap[new]] = part[new]
                old_idx = remap[~new]
                if old_idx.size:
                    fold = np.minimum if func == "MIN" else np.maximum
                    out[old_idx] = fold(out[old_idx], part[~new])
            seen[remap] = True
        return out
    raise SqlExecutionError(  # pragma: no cover - guarded by _parallel_eligible
        f"aggregate {func!r} has no mergeable partial"
    )


def _resolve_group_keys(node: AggregateNode, scope: "_Scope") -> tuple[Expr, ...]:
    """Resolve positional (``GROUP BY 1``) and alias group keys.

    BigQuery-style: an integer literal refers to the 1-based select item,
    and a bare identifier that matches an output alias (and is not itself a
    physical column) groups by that item's expression.
    """
    alias_map = dict(node.outputs)
    resolved: list[Expr] = []
    for expr in node.group_by:
        if isinstance(expr, Literal) and isinstance(expr.value, int):
            index = expr.value - 1
            if not 0 <= index < len(node.outputs):
                raise SqlPlanError(f"GROUP BY position {expr.value} out of range")
            expr = node.outputs[index][1]
        elif isinstance(expr, ColumnRef) and expr.table is None and expr.name in alias_map:
            if not _is_physical_column(expr, scope):
                expr = alias_map[expr.name]
        if find_aggregates(expr):
            raise SqlPlanError("aggregate functions are not allowed in GROUP BY")
        resolved.append(expr)
    return tuple(resolved)


def _is_physical_column(ref: ColumnRef, scope: "_Scope") -> bool:
    try:
        scope.resolve(ref)
    except SqlPlanError:
        return False
    return True


def _find_output(expr: Expr, outputs: Outputs) -> str | None:
    for name, output in outputs:
        if output == expr:
            return name
    return None


def _resolve_aliases(expr: Expr, alias_map: dict[str, Expr]) -> Expr:
    """Rewrite bare column references that name an output alias."""
    if isinstance(expr, ColumnRef) and expr.table is None and expr.name in alias_map:
        return alias_map[expr.name]
    if isinstance(expr, Unary):
        return Unary(expr.op, _resolve_aliases(expr.operand, alias_map))
    if isinstance(expr, Binary):
        return Binary(
            expr.op,
            _resolve_aliases(expr.left, alias_map),
            _resolve_aliases(expr.right, alias_map),
        )
    if isinstance(expr, Between):
        return Between(
            _resolve_aliases(expr.operand, alias_map),
            _resolve_aliases(expr.low, alias_map),
            _resolve_aliases(expr.high, alias_map),
            expr.negated,
        )
    if isinstance(expr, InList):
        return InList(
            _resolve_aliases(expr.operand, alias_map),
            tuple(_resolve_aliases(item, alias_map) for item in expr.items),
            expr.negated,
        )
    if isinstance(expr, IsNull):
        return IsNull(_resolve_aliases(expr.operand, alias_map), expr.negated)
    if isinstance(expr, FunctionCall):
        return FunctionCall(
            expr.name, tuple(_resolve_aliases(arg, alias_map) for arg in expr.args)
        )
    if isinstance(expr, Case):
        return Case(
            tuple(
                (_resolve_aliases(c, alias_map), _resolve_aliases(v, alias_map))
                for c, v in expr.whens
            ),
            _resolve_aliases(expr.default, alias_map) if expr.default else None,
        )
    return expr


def _order_codes(values: np.ndarray) -> np.ndarray:
    """Dense order-preserving integer codes (ties equal) for lexsort."""
    if values.dtype == object:
        try:
            distinct = sorted(set(values.tolist()))
        except TypeError as exc:
            raise SqlExecutionError(f"cannot order mixed-type values: {exc}") from exc
        mapping = {value: code for code, value in enumerate(distinct)}
        return np.asarray([mapping[v] for v in values], dtype=np.int64)
    _, inverse = np.unique(values, return_inverse=True)
    return inverse.astype(np.int64)
