"""Logical plans for CrowdSQL queries.

The planner translates a parsed SELECT into a tree of logical operators.
Crowd work appears explicitly in the plan (CrowdFilterNode, CrowdJoinNode,
CrowdOrderNode, FillNode), which is what lets the optimizer reason about
*where the money goes* — the core idea of the declarative systems
(CrowdDB / Deco / CrowdOP) the tutorial profiles.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

from repro.data.database import Database
from repro.data.expressions import (
    CrowdPredicate,
    Expression,
    contains_crowd_predicate,
)
from repro.errors import PlanError
from repro.lang.ast_nodes import Select


@dataclass
class PlanNode:
    """Base logical operator."""

    def children(self) -> tuple["PlanNode", ...]:
        """Direct child operators (inputs), left to right."""
        return ()

    def describe(self) -> str:
        """One-line label used by EXPLAIN output."""
        return type(self).__name__

    def walk(self) -> Iterator["PlanNode"]:
        """Yield this node and every descendant, pre-order."""
        yield self
        for child in self.children():
            yield from child.walk()


@dataclass
class ScanNode(PlanNode):
    table: str

    def describe(self) -> str:
        return f"Scan({self.table})"


@dataclass
class FillNode(PlanNode):
    """Resolve CNULL cells of the child's base table for given columns."""

    child: PlanNode
    table: str
    columns: tuple[str, ...]

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def describe(self) -> str:
        return f"CrowdFill({self.table}: {', '.join(self.columns)})"


@dataclass
class FilterNode(PlanNode):
    """Machine-evaluable predicate."""

    child: PlanNode
    predicate: Expression

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def describe(self) -> str:
        return f"Filter({self.predicate!r})"


@dataclass
class CrowdFilterNode(PlanNode):
    """Predicate requiring crowd answers (contains a CrowdPredicate)."""

    child: PlanNode
    predicate: Expression

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def describe(self) -> str:
        return f"CrowdFilter({self.predicate!r})"


@dataclass
class JoinNode(PlanNode):
    left: PlanNode
    right: PlanNode
    condition: Expression

    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    def describe(self) -> str:
        return f"Join({self.condition!r})"


@dataclass
class CrowdJoinNode(PlanNode):
    """Join whose condition needs the crowd (CROWDJOIN / crowd predicate)."""

    left: PlanNode
    right: PlanNode
    condition: Expression

    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    def describe(self) -> str:
        return f"CrowdJoin({self.condition!r})"


@dataclass
class ProjectNode(PlanNode):
    child: PlanNode
    columns: tuple[str, ...]

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def describe(self) -> str:
        return f"Project({', '.join(self.columns)})"


@dataclass
class DistinctNode(PlanNode):
    child: PlanNode

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)


@dataclass
class OrderNode(PlanNode):
    child: PlanNode
    keys: tuple[tuple[str, bool], ...]   # (column, ascending), major first

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def describe(self) -> str:
        rendered = ", ".join(
            f"{column} {'ASC' if ascending else 'DESC'}"
            for column, ascending in self.keys
        )
        return f"Order({rendered})"


@dataclass
class CrowdOrderNode(PlanNode):
    child: PlanNode
    column: str
    ascending: bool = False

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def describe(self) -> str:
        return f"CrowdOrder({self.column} {'ASC' if self.ascending else 'DESC'})"


@dataclass
class LimitNode(PlanNode):
    child: PlanNode
    limit: int

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def describe(self) -> str:
        return f"Limit({self.limit})"


@dataclass
class AggregateNode(PlanNode):
    """COUNT/SUM/AVG/MIN/MAX, optionally grouped by one column."""

    child: PlanNode
    aggregates: tuple  # tuple[AggregateSpec, ...] (avoid an import cycle)
    group_by: str | None = None

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def describe(self) -> str:
        parts = ", ".join(a.output_name for a in self.aggregates)
        suffix = f" GROUP BY {self.group_by}" if self.group_by else ""
        return f"Aggregate({parts}{suffix})"


@dataclass
class LogicalPlan:
    """Root wrapper, with bookkeeping for EXPLAIN output."""

    root: PlanNode
    notes: list[str] = field(default_factory=list)

    def explain(self) -> str:
        """Indented tree rendering plus optimizer notes."""
        lines: list[str] = []

        def render(node: PlanNode, depth: int) -> None:
            lines.append("  " * depth + node.describe())
            for child in node.children():
                render(child, depth + 1)

        render(self.root, 0)
        if self.notes:
            lines.append("-- " + "; ".join(self.notes))
        return "\n".join(lines)


def _referenced_crowd_columns(
    database: Database, table: str, select: Select
) -> tuple[str, ...]:
    """Crowd columns of *table* the query touches that still hold CNULLs.

    Plans are built per execution, so consulting current catalog state is
    sound; a table with no unresolved cells needs no FillNode.
    """
    base_table = database.table(table)
    schema = base_table.schema
    pending = {column for _rowid, column in base_table.cnull_cells()}
    crowd_cols = {c.name for c in schema.crowd_columns} & pending
    if not crowd_cols:
        return ()
    referenced: set[str] = set()
    if select.columns or select.aggregates:
        referenced |= set(select.columns)
        referenced |= {a.column for a in select.aggregates if a.column is not None}
        if select.group_by is not None:
            referenced.add(select.group_by)
    else:
        referenced |= set(schema.column_names)
    if select.where is not None:
        referenced |= select.where.columns()
    for join in select.joins:
        if join.condition is not None:
            referenced |= join.condition.columns()
    for spec in select.order:
        referenced.add(spec.column)
    if select.crowd_order is not None:
        referenced.add(select.crowd_order.column)
    return tuple(sorted(referenced & crowd_cols))


def build_plan(select: Select, database: Database) -> LogicalPlan:
    """Translate a SELECT AST into an (unoptimized) logical plan."""
    if select.table not in database:
        raise PlanError(f"unknown table {select.table!r}")
    plan: PlanNode = ScanNode(select.table)
    notes: list[str] = []

    fill_columns = _referenced_crowd_columns(database, select.table, select)
    if fill_columns:
        plan = FillNode(plan, select.table, fill_columns)
        notes.append(f"crowd-fill {select.table}({', '.join(fill_columns)})")

    for join in select.joins:
        if join.table not in database:
            raise PlanError(f"unknown table {join.table!r}")
        right: PlanNode = ScanNode(join.table)
        right_fill = _referenced_crowd_columns(database, join.table, select)
        if right_fill:
            right = FillNode(right, join.table, right_fill)
            notes.append(f"crowd-fill {join.table}({', '.join(right_fill)})")
        if join.condition is None:
            raise PlanError("join requires an ON condition")
        crowd = join.crowd or contains_crowd_predicate(join.condition)
        if crowd:
            plan = CrowdJoinNode(plan, right, join.condition)
        else:
            plan = JoinNode(plan, right, join.condition)

    if select.where is not None:
        plan = _filter_node(plan, select.where)

    if select.aggregates:
        plan = AggregateNode(plan, select.aggregates, group_by=select.group_by)
        if select.having is not None:
            plan = _filter_node(plan, select.having)

    if select.crowd_order is not None:
        plan = CrowdOrderNode(
            plan, select.crowd_order.column, ascending=select.crowd_order.ascending
        )
    elif select.order:
        plan = OrderNode(
            plan,
            tuple((spec.column, spec.ascending) for spec in select.order),
        )

    if select.columns and not select.aggregates:
        plan = ProjectNode(plan, select.columns)

    # DISTINCT applies to the projected columns (SQL semantics), so the
    # Distinct node sits above the projection.
    if select.distinct:
        plan = DistinctNode(plan)

    if select.limit is not None:
        plan = LimitNode(plan, select.limit)

    return LogicalPlan(root=plan, notes=notes)


def _filter_node(child: PlanNode, predicate: Expression) -> PlanNode:
    """A crowd filter when *predicate* holds a crowd predicate (WHERE and
    HAVING alike), else a machine filter."""
    if contains_crowd_predicate(predicate):
        return CrowdFilterNode(child, predicate)
    return FilterNode(child, predicate)


def count_crowd_operators(plan: LogicalPlan) -> int:
    """How many crowd-powered operators the plan contains (for tests/EXPLAIN)."""
    crowd_types = (CrowdFilterNode, CrowdJoinNode, CrowdOrderNode, FillNode)
    return sum(1 for node in plan.root.walk() if isinstance(node, crowd_types))


def machine_only(node: PlanNode) -> bool:
    """True when the subtree buys no crowd answers and draws no RNG."""
    if isinstance(node, (CrowdFilterNode, CrowdJoinNode, CrowdOrderNode, FillNode)):
        return False
    if isinstance(node, FilterNode) and contains_crowd_predicate(node.predicate):
        return False
    if isinstance(node, JoinNode) and contains_crowd_predicate(node.condition):
        return False
    return all(machine_only(c) for c in node.children())


def crowd_predicates_of(expression: Expression) -> list[CrowdPredicate]:
    """All CrowdPredicate nodes inside an expression tree."""
    found: list[CrowdPredicate] = []

    def visit(node: Expression) -> None:
        if isinstance(node, CrowdPredicate):
            found.append(node)
        for attr in ("left", "right", "operand"):
            child = getattr(node, attr, None)
            if isinstance(child, Expression):
                visit(child)
        for child in getattr(node, "operands", ()):
            if isinstance(child, Expression):
                visit(child)

    visit(expression)
    return found
