"""Planning: one operator tree per query, validated and optimized in one pass.

:func:`build` walks a parsed statement once and returns the tree of
:class:`~repro.sql.analyze.PlanNode` operators that ``EXPLAIN`` prints,
execution runs and ``EXPLAIN ANALYZE`` fills with measurements.  Each
SELECT becomes one :class:`SelectNode` whose children are its stages in
execution order — the FROM sources (:class:`ScanNode`, a pushed
:class:`FilterNode`, :class:`JoinNode`, a derived table's own
``Subquery`` :class:`SelectNode`), then the residual WHERE filter,
:class:`AggregateNode` or :class:`ProjectNode`, :class:`DistinctNode`,
:class:`SortNode` and :class:`LimitNode`.  A ``UNION ALL`` is a
:class:`UnionAllNode` over one ``Member`` :class:`SelectNode` per SELECT.

The same pass validates (raising :class:`SqlPlanError` before any data is
touched: misplaced aggregates, unknown tables and columns, ...) and makes
the cost-based decisions: per-table access paths (sequential scan vs.
index equality/range scan), predicate and projection pushdown into the
columnar scans, a join strategy per join node (hash / sort-merge / index
nested-loop, priced by :mod:`repro.sql.cost`), and estimated row counts
for every node — the ``est=`` column of EXPLAIN / EXPLAIN ANALYZE.
Without options every decision keeps its naive value (full scans, WHERE
after FROM, hash joins, no estimates); the executor produces
byte-identical results either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.errors import SqlPlanError
from repro.sql.analyze import PlanNode
from repro.sql.astnodes import (
    Aggregate,
    Between,
    Binary,
    Case,
    ColumnRef,
    Expr,
    FunctionCall,
    InList,
    IsNull,
    Join,
    Literal,
    OrderItem,
    Select,
    SelectItem,
    Star,
    SubquerySource,
    TableRef,
    Unary,
    Union,
)
from repro.sql.cost import (
    TOGGLE_NAMES,
    PlannerOptions,
    choose_join_strategy,
    estimate_join_rows,
    selectivity,
)
from repro.table.stats import TableStatistics

#: A select list as ``(output name, expression)`` pairs; empty for ``*``.
Outputs = tuple[tuple[str, Expr], ...]


@dataclass(eq=False, kw_only=True)
class SelectNode(PlanNode):
    """One SELECT: its stages, run in order.

    ``op`` is ``Execute`` for the statement itself, ``Subquery`` for a
    derived table (``detail`` is its binding) and ``Member`` for a
    ``UNION ALL`` member (``detail`` is its 1-based position).
    """

    select: Select
    output_names: tuple[str, ...]


@dataclass(eq=False, kw_only=True)
class ScanNode(PlanNode):
    """Access path for one base table in FROM."""

    op: str = field(default="Scan", init=False)
    binding: str
    table_name: str
    access: str = "seq"  # "seq" | "index-eq" | "index-range"
    index_column: str = ""
    index_kind: str = ""
    index_value: Any = None
    index_low: Any = None
    index_high: Any = None
    index_include_low: bool = True
    index_include_high: bool = True
    columns: tuple[str, ...] | None = None  # projection pushdown; None keeps all
    stats_state: str = "absent"

    def describe(self) -> str:
        """Human-readable access-path summary for EXPLAIN."""
        parts = [self.table_name]
        if self.access == "index-eq":
            parts.append(f"via {self.index_column}[{self.index_kind}] = {self.index_value!r}")
        elif self.access == "index-range":
            low = "-inf" if self.index_low is None else repr(self.index_low)
            high = "+inf" if self.index_high is None else repr(self.index_high)
            left = "[" if self.index_include_low else "("
            right = "]" if self.index_include_high else ")"
            parts.append(f"via {self.index_column}[{self.index_kind}] {left}{low}, {high}{right}")
        if self.columns is not None:
            parts.append(f"cols={len(self.columns)}")
        parts.append(f"stats={self.stats_state}")
        return " ".join(parts)


@dataclass(eq=False, kw_only=True)
class FilterNode(PlanNode):
    """Keeps the rows where ``predicate`` holds (``detail="pushed"`` in a scan)."""

    op: str = field(default="Filter", init=False)
    predicate: Expr


@dataclass(eq=False, kw_only=True)
class JoinNode(PlanNode):
    """An equi-join; ``children[:n_left]`` build its left input, the rest its right."""

    op: str = field(default="Join", init=False)
    join: Join
    n_left: int
    strategy: str = "hash"  # "hash" | "sort_merge" | "index"
    index_table: str = ""  # catalog name owning the probe index
    index_column: str = ""


@dataclass(eq=False, kw_only=True)
class AggregateNode(PlanNode):
    """GROUP BY, aggregates and HAVING, producing the select list per group."""

    op: str = field(default="Aggregate", init=False)
    group_by: tuple[Expr, ...]
    aggregates: tuple[Aggregate, ...]
    having: Expr | None
    outputs: Outputs


@dataclass(eq=False, kw_only=True)
class ProjectNode(PlanNode):
    """Evaluates the select list (``outputs``) per row."""

    op: str = field(default="Project", init=False)
    outputs: Outputs


@dataclass(eq=False, kw_only=True)
class DistinctNode(PlanNode):
    """Drops duplicate output rows."""

    op: str = field(default="Distinct", init=False)


@dataclass(eq=False, kw_only=True)
class SortNode(PlanNode):
    """ORDER BY ``keys``; output aliases resolve through ``outputs``."""

    op: str = field(default="Sort", init=False)
    keys: tuple[OrderItem, ...]
    outputs: Outputs
    distinct: bool


@dataclass(eq=False, kw_only=True)
class LimitNode(PlanNode):
    """LIMIT / OFFSET."""

    op: str = field(default="Limit", init=False)
    limit: int | None
    offset: int | None


@dataclass(eq=False, kw_only=True)
class UnionAllNode(PlanNode):
    """``UNION ALL``: concatenates its ``Member`` children's outputs."""

    op: str = field(default="UnionAll", init=False)


def walk(expr: Expr) -> Iterator[Expr]:
    """Yield ``expr`` and every sub-expression, depth-first."""
    yield expr
    if isinstance(expr, Aggregate):
        children = [] if expr.argument is None else [expr.argument]
    else:
        children = _direct_children(expr)
    for child in children:
        yield from walk(child)


def find_aggregates(expr: Expr) -> list[Aggregate]:
    """Return the aggregate nodes inside ``expr`` (not descending into them)."""
    if isinstance(expr, Aggregate):
        return [expr]
    return [found for child in _direct_children(expr) for found in find_aggregates(child)]


def _direct_children(expr: Expr) -> list[Expr]:
    if isinstance(expr, Unary):
        return [expr.operand]
    if isinstance(expr, Binary):
        return [expr.left, expr.right]
    if isinstance(expr, Between):
        return [expr.operand, expr.low, expr.high]
    if isinstance(expr, InList):
        return [expr.operand, *expr.items]
    if isinstance(expr, IsNull):
        return [expr.operand]
    if isinstance(expr, FunctionCall):
        return list(expr.args)
    if isinstance(expr, Case):
        children: list[Expr] = []
        for condition, value in expr.whens:
            children.extend((condition, value))
        if expr.default is not None:
            children.append(expr.default)
        return children
    return []


def source_tables(
    source: TableRef | SubquerySource | Join,
) -> list[TableRef | SubquerySource]:
    """Flatten a FROM clause into its sources, left to right."""
    if isinstance(source, (TableRef, SubquerySource)):
        return [source]
    return source_tables(source.left) + [source.right]


def _joins(source: TableRef | SubquerySource | Join) -> list[Join]:
    """The joins of a FROM clause, innermost first."""
    joins: list[Join] = []
    while isinstance(source, Join):
        joins.insert(0, source)
        source = source.left
    return joins


def build(
    statement: Select | Union,
    source_info: Callable[[TableRef], SourceInfo],
    options: PlannerOptions | None = None,
) -> PlanNode:
    """Validate and plan ``statement`` into its operator tree.

    ``source_info`` describes each base table in FROM (and raises
    :class:`SqlPlanError` for an unknown one).  ``options=None`` plans
    naively: no pushdown, full scans, hash joins and no estimates.
    """
    if isinstance(statement, Union):
        members = [
            build_select(select, source_info, options, "Member", str(i + 1))
            for i, select in enumerate(statement.selects)
        ]
        return UnionAllNode(
            detail=f"{len(members)} members",
            rows_est=None if options is None else sum(m.rows_est or 0 for m in members),
            children=members,
        )
    return build_select(statement, source_info, options)


#: The naive plan's decisions: every toggle off, so hash join is the fallback.
_NAIVE = PlannerOptions.with_disabled(TOGGLE_NAMES)


def build_select(
    select: Select,
    source_info: Callable[[TableRef], SourceInfo],
    options: PlannerOptions | None = None,
    op: str = "Execute",
    detail: str = "",
) -> SelectNode:
    """Validate and plan one SELECT (derived tables included, each once)."""
    sources = source_tables(select.source)
    bindings = [t.binding for t in sources]
    if len(set(bindings)) != len(bindings):
        raise SqlPlanError(f"duplicate table binding in FROM: {bindings}")
    derived = {
        s.binding: build_select(s.select, source_info, options, "Subquery", s.binding)
        for s in sources
        if isinstance(s, SubquerySource)
    }
    aggregates, is_aggregation = _validate(select)
    output_names = _output_names(select)
    infos: dict[str, SourceInfo | None] = {}
    for source in sources:
        if isinstance(source, TableRef):
            infos[source.binding] = source_info(source)
        elif isinstance(source.select.items, Star):
            infos[source.binding] = None  # output columns unknown before execution
        else:
            child = derived[source.binding]
            infos[source.binding] = SourceInfo(
                rows=child.rows_est or 0, columns=child.output_names, column_kinds={}
            )
    known_columns: dict[str, tuple[str, ...] | None] = {
        binding: (info.columns if info is not None else None)
        for binding, info in infos.items()
    }
    needed = _resolve_columns(select, known_columns, output_names)

    naive = options is None
    opts = options or _NAIVE
    nullable = {j.right.binding for j in _joins(select.source) if j.kind == "left"}

    def attribute(ref: ColumnRef) -> str | None:
        return _attribute_ref(ref, known_columns)

    def stats_for(ref: ColumnRef):
        binding = attribute(ref)
        info = infos.get(binding) if binding is not None else None
        if info is None or info.stats is None:
            return None
        return info.stats.column(ref.name)

    # -- predicate pushdown ---------------------------------------------------
    table_bindings = {s.binding for s in sources if isinstance(s, TableRef)}
    pushed_by_binding: dict[str, list[Expr]] = {}
    residual: list[Expr] = []
    for conjunct in split_conjuncts(select.where) if select.where is not None else []:
        binding = _conjunct_binding(conjunct, attribute) if opts.predicate_pushdown else None
        if binding in table_bindings and binding not in nullable:
            pushed_by_binding.setdefault(binding, []).append(conjunct)
        else:
            residual.append(conjunct)

    # -- per-table access paths -----------------------------------------------
    source_nodes: dict[str, list[PlanNode]] = {}
    for source in sources:
        binding = source.binding
        if isinstance(source, SubquerySource):
            source_nodes[binding] = [derived[binding]]
            continue
        info = infos[binding]
        assert info is not None
        pushed = pushed_by_binding.get(binding, [])
        scan = ScanNode(binding=binding, table_name=source.name, stats_state=info.stats_state)
        access_est = info.rows
        if opts.index_scan and info.indexes and pushed:
            chosen = _choose_index(pushed, binding, info, stats_for)
            if chosen is not None:
                index_conjunct, updates, access_est = chosen
                for key, value in updates.items():
                    setattr(scan, key, value)
                pushed = [c for c in pushed if c is not index_conjunct]
        scan.rows_est = access_est
        combined_sel = 1.0
        for conjunct in pushed_by_binding.get(binding, []):
            combined_sel *= selectivity(conjunct, stats_for)
        est_rows = max(int(round(info.rows * combined_sel)), 0)
        if scan.access != "seq":
            est_rows = min(est_rows, access_est)
        if opts.projection_pushdown and needed is not None and info.columns:
            keep = tuple(c for c in info.columns if c in needed.get(binding, set()))
            if not keep:
                keep = (info.columns[0],)
            if set(keep) != set(info.columns):
                scan.columns = keep
        trivial = scan.access == "seq" and not pushed and scan.columns is None
        scan.detail = source.name if trivial else scan.describe()
        source_nodes[binding] = [scan]
        if pushed:
            predicate = and_combine(pushed)
            assert predicate is not None
            source_nodes[binding].append(
                FilterNode(detail="pushed", predicate=predicate, rows_est=est_rows)
            )

    # -- join strategies and cardinalities ------------------------------------
    def plan_from(source: TableRef | SubquerySource | Join) -> list[PlanNode]:
        if not isinstance(source, Join):
            return source_nodes[source.binding]
        left = plan_from(source.left)
        right = source_nodes[source.right.binding]
        left_rows, right_rows = left[-1].rows_est or 0, right[-1].rows_est or 0
        left_key, right_key = stats_for(source.on_left), stats_for(source.on_right)
        est = estimate_join_rows(
            left_rows,
            right_rows,
            source.kind,
            left_key.n_distinct if left_key is not None else None,
            right_key.n_distinct if right_key is not None else None,
        )
        index_kind = _join_index_kind(source, right, infos)
        strategy, cost = choose_join_strategy(opts, left_rows, right_rows, index_kind)
        node = JoinNode(
            detail=source.kind.upper() + ("" if naive else f" strategy={strategy} cost={cost:.0f}"),
            join=source,
            n_left=len(left),
            strategy=strategy,
            rows_est=est,
            children=left + right,
        )
        if strategy == "index" and isinstance(source.right, TableRef):
            node.index_table = source.right.name
            node.index_column = source.on_right.name
        return [node]

    # -- stages after FROM ----------------------------------------------------
    stages = plan_from(select.source)
    current = stages[-1].rows_est or 0
    residual_where = and_combine(residual)
    if residual_where is not None:
        current = max(int(round(current * selectivity(residual_where, stats_for))), 0)
        stages.append(FilterNode(predicate=residual_where, rows_est=current))
    items = () if isinstance(select.items, Star) else select.items
    outputs = tuple(zip(output_names, (item.expr for item in items)))
    if is_aggregation:
        current = _estimate_groups(select, current, stats_for)
        if select.having is not None:
            current = max(int(round(current * selectivity(select.having, stats_for))), 0)
        stages.append(AggregateNode(
            detail=f"keys={len(select.group_by)} aggregates={len(aggregates)}",
            rows_est=current,
            group_by=select.group_by,
            aggregates=aggregates,
            having=select.having,
            outputs=outputs,
        ))
    else:
        stages.append(ProjectNode(
            detail=_project_detail(output_names), rows_est=current, outputs=outputs
        ))
    if select.distinct:
        stages.append(DistinctNode(rows_est=current))
    if select.order_by:
        stages.append(SortNode(
            detail=f"keys={len(select.order_by)}",
            rows_est=current,
            keys=select.order_by,
            outputs=outputs,
            distinct=select.distinct,
        ))
    if select.limit is not None or select.offset is not None:
        current = max(current - (select.offset or 0), 0)
        if select.limit is not None:
            current = min(current, select.limit)
        shown = "ALL" if select.limit is None else str(select.limit)
        if select.offset:
            shown += f" offset={select.offset}"
        stages.append(LimitNode(
            detail=shown, rows_est=current, limit=select.limit, offset=select.offset
        ))
    root = SelectNode(
        op=op,
        detail=detail,
        rows_est=current,
        children=stages,
        select=select,
        output_names=output_names,
    )
    if naive:
        _clear_estimates(root)
    return root


def _clear_estimates(node: PlanNode) -> None:
    node.rows_est = None
    for child in node.children:
        _clear_estimates(child)


def _validate(select: Select) -> tuple[tuple[Aggregate, ...], bool]:
    """Check aggregate placement; return the distinct aggregates and whether
    the query aggregates."""
    if select.where is not None and find_aggregates(select.where):
        raise SqlPlanError("aggregate functions are not allowed in WHERE")
    for expr in select.group_by:
        if find_aggregates(expr):
            raise SqlPlanError("aggregate functions are not allowed in GROUP BY")

    items = () if isinstance(select.items, Star) else select.items
    exprs = [*(item.expr for item in items), select.having, *(o.expr for o in select.order_by)]
    aggregates = [a for expr in exprs if expr is not None for a in find_aggregates(expr)]

    is_aggregation = bool(select.group_by) or bool(aggregates)
    if is_aggregation and isinstance(select.items, Star):
        raise SqlPlanError("SELECT * cannot be combined with GROUP BY or aggregates")
    if select.having is not None and not is_aggregation:
        raise SqlPlanError("HAVING requires GROUP BY or aggregate functions")

    for aggregate in aggregates:
        if aggregate.distinct and aggregate.func != "COUNT":
            raise SqlPlanError(
                f"DISTINCT is only supported inside COUNT, not {aggregate.func}"
            )
        if aggregate.argument is not None and find_aggregates(aggregate.argument):
            raise SqlPlanError("nested aggregate functions are not allowed")

    return tuple(dict.fromkeys(aggregates)), is_aggregation


def _resolve_columns(
    select: Select,
    known_columns: dict[str, tuple[str, ...] | None],
    output_names: tuple[str, ...],
) -> dict[str, set[str]] | None:
    """Resolve every column reference against FROM, as execution will.

    Raises execution's error for a reference FROM cannot resolve, except
    that a bare name in GROUP BY, HAVING or ORDER BY may name a
    select-list output.  Returns the columns each binding must provide,
    or None — no column pruning — for ``SELECT *`` and for references
    only a ``SELECT *`` derived table could own (its columns are known
    once it runs).
    """
    needed: dict[str, set[str]] = {}
    unresolved = isinstance(select.items, Star)

    def resolve(
        ref: ColumnRef,
        scope: dict[str, tuple[str, ...] | None],
        joined: bool,
        alias_ok: bool = False,
    ) -> None:
        nonlocal unresolved
        binding = _attribute_ref(ref, scope)
        if binding is not None:
            needed.setdefault(binding, set()).add(ref.name)
        elif not (alias_ok and ref.table is None and ref.name in output_names):
            _raise_unresolved(ref, scope, joined)
            unresolved = True

    for join in _joins(select.source):  # each key resolves within its own side
        left = {t.binding: known_columns[t.binding] for t in source_tables(join.left)}
        resolve(join.on_left, left, True)
        resolve(join.on_right, {join.right.binding: known_columns[join.right.binding]}, True)
    items = () if isinstance(select.items, Star) else select.items
    clauses = [
        (False, [select.where, *(item.expr for item in items)]),
        (True, [*select.group_by, select.having, *(o.expr for o in select.order_by)]),
    ]
    in_join = isinstance(select.source, Join)
    for alias_ok, exprs in clauses:
        for expr in exprs:
            for ref in walk(expr) if expr is not None else ():
                if isinstance(ref, ColumnRef):
                    resolve(ref, known_columns, in_join, alias_ok)
    return None if unresolved else needed


def _raise_unresolved(
    ref: ColumnRef, scope: dict[str, tuple[str, ...] | None], joined: bool
) -> None:
    """Raise execution's error for ``ref``, which no binding in ``scope``
    owns alone — unless a ``SELECT *`` derived table might own it.

    ``joined`` scopes name columns ``binding.column``; a single source
    resolves bare names and checks the qualifier.
    """
    if None in scope.values():
        return
    if not joined and ref.table is not None and ref.table not in scope:
        raise SqlPlanError(f"unknown table qualifier {ref.table!r}")
    owners = [b for b, columns in scope.items() if columns and ref.name in columns]
    if ref.table is None and len(owners) > 1:
        matches = [f"{binding}.{ref.name}" for binding in owners]
        raise SqlPlanError(f"ambiguous column {ref.name!r}: {matches}")
    raise SqlPlanError(f"unknown column {ref.display!r}")


def _output_names(select: Select) -> tuple[str, ...]:
    if isinstance(select.items, Star):
        return ()
    names: list[str] = []
    for i, item in enumerate(select.items):
        names.append(item.alias or _default_name(item, i))
    seen: dict[str, int] = {}
    unique: list[str] = []
    for name in names:
        if name in seen:
            seen[name] += 1
            unique.append(f"{name}_{seen[name]}")
        else:
            seen[name] = 0
            unique.append(name)
    return tuple(unique)


def _default_name(item: SelectItem, index: int) -> str:
    expr = item.expr
    if isinstance(expr, ColumnRef):
        return expr.name
    if isinstance(expr, Aggregate):
        if expr.argument is None:
            return "count"
        if isinstance(expr.argument, ColumnRef):
            return f"{expr.func.lower()}_{expr.argument.name}"
        return expr.func.lower()
    if isinstance(expr, FunctionCall):
        return expr.name.lower()
    if isinstance(expr, Literal):
        return f"literal_{index}"
    return f"col_{index}"


def _project_detail(names: tuple[str, ...]) -> str:
    if not names:
        return "*"
    if len(names) > 4:
        return f"[{', '.join(names[:4])}, ... +{len(names) - 4}]"
    return f"[{', '.join(names)}]"


@dataclass(frozen=True)
class SourceInfo:
    """What the optimizer knows about one catalog table."""

    rows: int
    columns: tuple[str, ...]
    column_kinds: dict[str, str]
    stats: TableStatistics | None = None
    stats_state: str = "absent"  # "fresh" | "stale" | "absent"
    indexes: dict[str, str] = field(default_factory=dict)  # column -> index kind


def split_conjuncts(expr: Expr) -> list[Expr]:
    """Flatten an AND tree into its conjuncts, left to right."""
    if isinstance(expr, Binary) and expr.op == "AND":
        return split_conjuncts(expr.left) + split_conjuncts(expr.right)
    return [expr]


def and_combine(conjuncts: list[Expr]) -> Expr | None:
    """Left-associative AND of ``conjuncts`` (None when empty)."""
    if not conjuncts:
        return None
    combined = conjuncts[0]
    for conjunct in conjuncts[1:]:
        combined = Binary("AND", combined, conjunct)
    return combined


def _attribute_ref(
    ref: ColumnRef, known_columns: dict[str, tuple[str, ...] | None]
) -> str | None:
    """Find the unique binding owning ``ref``, or None when unresolvable."""
    if ref.table is not None:
        if ref.table not in known_columns:
            return None
        columns = known_columns[ref.table]
        if columns is not None and ref.name not in columns:
            return None
        return ref.table
    if any(columns is None for columns in known_columns.values()):
        return None  # a source with unknown columns could own this ref
    owners = [
        binding
        for binding, columns in known_columns.items()
        if columns is not None and ref.name in columns
    ]
    return owners[0] if len(owners) == 1 else None


def _conjunct_binding(
    conjunct: Expr, attribute: Callable[[ColumnRef], str | None]
) -> str | None:
    """The single binding a conjunct touches, or None when not pushable."""
    refs = [node for node in walk(conjunct) if isinstance(node, ColumnRef)]
    if not refs:
        return None
    bindings = {attribute(ref) for ref in refs}
    if len(bindings) != 1 or None in bindings:
        return None
    return next(iter(bindings))


_NUMERIC_KINDS = ("int", "float", "bool")


def _literal_compatible(kind: str | None, value: Any) -> bool:
    """Whether an index over a ``kind`` column can be probed with ``value``."""
    if value is None:
        return False
    if kind == "str":
        return isinstance(value, str)
    if kind in _NUMERIC_KINDS:
        return isinstance(value, (bool, int, float)) and not isinstance(value, str)
    return False


def _choose_index(
    pushed: list[Expr],
    binding: str,
    info: SourceInfo,
    stats_for: Callable[[ColumnRef], Any],
) -> tuple[Expr, dict[str, Any], int] | None:
    """Pick the most selective index-servable conjunct for this scan.

    Returns ``(conjunct, scan-field updates, estimated rows)`` or None when
    a full scan is preferable (no candidate, or none selective enough).
    """
    best: tuple[int, int, Expr, dict[str, Any]] | None = None
    for order, conjunct in enumerate(pushed):
        updates = _index_candidate(conjunct, binding, info)
        if updates is None:
            continue
        est = max(int(round(info.rows * selectivity(conjunct, stats_for))), 0)
        if best is None or (est, order) < (best[0], best[1]):
            best = (est, order, conjunct, updates)
    if best is None:
        return None
    est, _, conjunct, updates = best
    if est >= info.rows * 0.5:
        return None  # not selective enough to beat a vectorized full scan
    return conjunct, updates, est


def _index_candidate(
    conjunct: Expr, binding: str, info: SourceInfo
) -> dict[str, Any] | None:
    """Scan-plan updates if ``conjunct`` can be answered by an index."""

    def owned(ref: Expr) -> str | None:
        if not isinstance(ref, ColumnRef):
            return None
        if ref.table is not None and ref.table != binding:
            return None
        if ref.name not in info.columns:
            return None
        return ref.name

    if isinstance(conjunct, Binary) and conjunct.op in ("=", "<", "<=", ">", ">="):
        column, value, flipped = None, None, False
        if isinstance(conjunct.right, Literal):
            column, value = owned(conjunct.left), conjunct.right.value
        elif isinstance(conjunct.left, Literal):
            column, value, flipped = owned(conjunct.right), conjunct.left.value, True
        if column is None:
            return None
        index_kind = info.indexes.get(column)
        if index_kind is None or not _literal_compatible(info.column_kinds.get(column), value):
            return None
        if conjunct.op == "=":
            return {
                "access": "index-eq",
                "index_column": column,
                "index_kind": index_kind,
                "index_value": value,
            }
        if index_kind != "sorted":
            return None
        op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}[conjunct.op] if flipped else conjunct.op
        updates: dict[str, Any] = {
            "access": "index-range",
            "index_column": column,
            "index_kind": index_kind,
        }
        if op in ("<", "<="):
            updates["index_high"] = value
            updates["index_include_high"] = op == "<="
        else:
            updates["index_low"] = value
            updates["index_include_low"] = op == ">="
        return updates
    if isinstance(conjunct, Between) and not conjunct.negated:
        if not (isinstance(conjunct.low, Literal) and isinstance(conjunct.high, Literal)):
            return None
        column = owned(conjunct.operand)
        if column is None or info.indexes.get(column) != "sorted":
            return None
        kind = info.column_kinds.get(column)
        if not (
            _literal_compatible(kind, conjunct.low.value)
            and _literal_compatible(kind, conjunct.high.value)
        ):
            return None
        return {
            "access": "index-range",
            "index_column": column,
            "index_kind": "sorted",
            "index_low": conjunct.low.value,
            "index_high": conjunct.high.value,
        }
    return None


def _join_index_kind(
    join: Join, right: list[PlanNode], infos: dict[str, SourceInfo | None]
) -> str | None:
    """Kind of a usable right-side join-key index, or None.

    Index nested-loop probes base-table row positions, so the right side
    must be a bare table scanned without an index access path or pushed
    filters (column pruning keeps row positions valid).
    """
    if not isinstance(join.right, TableRef) or len(right) != 1:
        return None
    scan = right[0]
    if not isinstance(scan, ScanNode) or scan.access != "seq":
        return None
    info = infos.get(join.right.binding)
    if info is None:
        return None
    if join.on_right.table is not None and join.on_right.table != join.right.binding:
        return None
    return info.indexes.get(join.on_right.name)


def _estimate_groups(
    select: Select, input_rows: int, stats_for: Callable[[ColumnRef], Any]
) -> int:
    """Estimated group count: product of key distincts, capped at the input."""
    if not select.group_by:
        return 1
    if input_rows == 0:
        return 0
    product = 1
    for expr in select.group_by:
        if isinstance(expr, ColumnRef):
            stats = stats_for(expr)
            distinct = stats.n_distinct if stats is not None else None
        else:
            distinct = None
        if distinct is None:
            distinct = max(int(math.isqrt(input_rows)), 1)
        product = min(product * max(distinct, 1), input_rows)
    return max(min(product, input_rows), 1)
