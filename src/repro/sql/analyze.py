"""EXPLAIN ANALYZE support: per-operator execution statistics.

A query is planned into one tree of :class:`PlanNode` operators (see
:func:`repro.sql.planner.build`).  ``EXPLAIN`` renders that tree
unexecuted, with estimated rows only; execution walks the same tree, and
:func:`measure` records each operator's wall time and rows in/out on its
node, which :func:`format_plan` renders as the ``repro query
--explain-analyze`` output::

    Query                                  time=3.96ms rows=20
    ├─ Parse                               time=0.23ms
    ├─ Plan                                time=0.02ms
    └─ Execute                             time=3.70ms rows=20
       ├─ Scan credits                     time=0.41ms rows=86305
       ├─ Aggregate keys=1 aggregates=1    time=2.22ms in=86305 out=1137
       ...

Operators additionally report the bytes of column data they scanned and
the rows that *spilled* off the columnar fast path onto per-row Python
loops (``bytes=``/``spill=`` in the rendering); while the process-wide
tracer is recording, those totals also accumulate as
``sql.op.<kind>.rows_out`` / ``.bytes_scanned`` / ``.spill_rows``
counters in the Prometheus-exported registry.

Outside EXPLAIN ANALYZE, when the process-wide tracer (:mod:`repro.obs`)
is enabled, each operator runs inside a ``sql.<Op>`` span carrying the
same statistics, so ``--trace`` captures per-operator timing too.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from typing import Iterator

from repro import obs

#: Rows processed by per-row Python fallbacks since process start.  There
#: is no disk spill in this engine; "spill" counts the analogous cliff —
#: rows leaving the vectorized numpy kernels.  :func:`measure` diffs this
#: around each operator to attribute spilled rows to it.
_SPILL_ROWS = 0

#: Node statistics copied onto an operator's ``sql.<Op>`` span.
_SPAN_ATTRS = ("rows_in", "rows_out", "rows_est", "bytes_scanned", "spilled_rows")


def note_spill(rows: int) -> None:
    """Count ``rows`` handled by a per-row Python loop."""
    global _SPILL_ROWS
    _SPILL_ROWS += int(rows)


@dataclass(eq=False)
class PlanNode:
    """One operator of a query's plan tree and its execution statistics.

    ``rows_est`` is the planner's estimate (None without the optimizer).
    ``bytes_scanned`` is the raw size of the column data an operator
    touched (scan-type operators).  ``spilled_rows`` counts rows that fell
    off the columnar fast path onto a per-row Python loop — there is no
    disk spill in this engine, so "spill" measures the analogous cliff:
    work leaving vectorized numpy kernels.
    """

    op: str
    detail: str = ""
    rows_in: int | None = None
    rows_out: int | None = None
    rows_est: int | None = None
    bytes_scanned: int | None = None
    spilled_rows: int | None = None
    seconds: float = 0.0
    children: list = field(default_factory=list)

    @property
    def label(self) -> str:
        """Operator name plus its detail, if any."""
        return f"{self.op} {self.detail}".rstrip()


@contextmanager
def measure(node: PlanNode, analyze: bool) -> Iterator[None]:
    """Record the statistics of the operator ``node`` whose work the block does.

    The block sets the node's row counts; this adds wall time and the rows
    spilled by the operator itself (its children's spill excluded).  With
    ``analyze`` off and the process-wide tracer recording, the block runs
    inside a ``sql.<Op>`` span carrying the statistics; EXPLAIN ANALYZE
    takes priority and keeps them on the tree only.
    """
    attrs = {"detail": node.detail} if node.detail else {}
    span = obs.span(f"sql.{node.op}", **attrs) if not analyze and obs.tracing_enabled() else None
    spill_base = _SPILL_ROWS
    start = time.perf_counter()
    with span or nullcontext():
        yield
        node.seconds = time.perf_counter() - start
        own = _SPILL_ROWS - spill_base - sum(child.spilled_rows or 0 for child in node.children)
        node.spilled_rows = own or None
        if span is not None:
            span.set(**{
                name: getattr(node, name)
                for name in _SPAN_ATTRS
                if getattr(node, name) is not None
            })
    _feed_registry(node)


def _feed_registry(node: PlanNode) -> None:
    """Accumulate per-operator totals into the process-wide registry.

    One counter family per operator kind (``sql.op.scan.rows_out``,
    ``...bytes_scanned``, ``...spill_rows``) — the operator vocabulary is
    small and fixed, so cardinality stays bounded.  No-op while the
    tracer is disabled.
    """
    if not obs.tracing_enabled():
        return
    key = node.op.lower()
    if node.rows_out:
        obs.counter(f"sql.op.{key}.rows_out", node.rows_out)
    if node.bytes_scanned:
        obs.counter(f"sql.op.{key}.bytes_scanned", node.bytes_scanned)
    if node.spilled_rows:
        obs.counter(f"sql.op.{key}.spill_rows", node.spilled_rows)


def _format_bytes(n: int) -> str:
    """Human byte size with one-letter unit (``4.2MB``, ``978B``)."""
    size = float(n)
    for unit in ("B", "kB", "MB", "GB"):
        if size < 1024.0 or unit == "GB":
            return f"{size:.1f}{unit}" if unit != "B" else f"{int(size)}B"
        size /= 1024.0
    return f"{int(size)}B"  # pragma: no cover - unreachable


def format_plan(node: PlanNode, include_time: bool = True) -> str:
    """Render a plan tree with per-operator wall time and row counts.

    Estimated rows (``est=``, from the cost-based planner) print after the
    actual counts so estimated-vs-actual can be read off each line.  Pure
    ``EXPLAIN`` (no execution) renders with ``include_time=False``, showing
    estimates only.
    """
    lines: list[str] = []

    def visit(node: PlanNode, prefix: str, connector: str, child_prefix: str) -> None:
        stats = [f"time={node.seconds * 1e3:.2f}ms"] if include_time else []
        if node.rows_in is not None and node.rows_in != node.rows_out:
            stats.append(f"in={node.rows_in}")
            if node.rows_out is not None:
                stats.append(f"out={node.rows_out}")
        elif node.rows_out is not None:
            stats.append(f"rows={node.rows_out}")
        if node.rows_est is not None:
            stats.append(f"est={node.rows_est}")
        if node.bytes_scanned is not None:
            stats.append(f"bytes={_format_bytes(node.bytes_scanned)}")
        if node.spilled_rows:
            stats.append(f"spill={node.spilled_rows}")
        label = f"{prefix}{connector}{node.label}"
        lines.append(f"{label:<45s} {' '.join(stats)}".rstrip())
        for i, child in enumerate(node.children):
            last = i == len(node.children) - 1
            visit(
                child,
                child_prefix,
                "└─ " if last else "├─ ",
                child_prefix + ("   " if last else "│  "),
            )

    visit(node, "", "", "")
    return "\n".join(lines)
