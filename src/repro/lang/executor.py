"""Pull-based executor for CrowdSQL logical plans.

Machine operators evaluate rows directly; crowd operators route through the
platform with the configured redundancy and truth-inference method. Ground
truth for the simulated workers comes from a :class:`CrowdOracle`, which a
real deployment would simply omit (workers would supply knowledge instead).

A crowd operator posts its questions as one batch of HITs, as CrowdDB and
Qurk do. A CROWDFILTER, a CROWDJOIN, or the crowd WHERE of UPDATE/DELETE
renders each row's question in row order, computes its content signature
once (one ``question_signer`` per call encodes all but the question, so
a row costs one hash), skips what the statement's verdict memo already
decided, and buys every new question in one ``platform.collect`` (one
scheduler run); each verdict is then decided per task. The signature
rides on the task, so the answer cache never hashes it again. Only
conditions where a later question depends on an earlier verdict (two or
more crowd predicates, or one under OR/NOT) keep the per-row short-circuit
of :meth:`Executor._eval_crowd`. The streaming executor
(:mod:`repro.lang.streaming`) plans through the same step.

Before any of that, :meth:`Executor.execute` derives every plan node's
output schema (:meth:`Executor._schema_of`), so a statement that names a
column its input lacks fails before it buys a crowd answer.

Machine-side work runs on the column store's arrays where the plan shape
allows it: scan/filter chains over a base table evaluate one fused
predicate, crowd filters pre-drop rows whose machine-decidable prefix is
definitely False before any crowd question is purchased, machine
equi-joins build/probe on key arrays, and aggregates group and reduce
per-column value lists. Row dicts are built only for rows a node returns
or hands to the crowd, one column at a time
(:meth:`~repro.data.columnstore.ColumnStore.rows_at`); the hash join
still builds its matched rows through ``row_dict``. Every fast path
produces bit-identical rows, ordering, and crowd purchase sequences to the
row-at-a-time code, which stays in place as the fallback for plan shapes
the columnar resolver does not cover.

Per-run accounting (questions, answers, spend) is collected in
:class:`ExecutionStats` so the T7 benchmark can compare plans.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from itertools import compress, product
from typing import Any

import numpy as np

from repro.cost.similarity import jaccard_tokens
from repro.data.columnstore import ColumnVector
from repro.data.database import Database
from repro.data.expressions import (
    And,
    ColumnRef,
    Comparison,
    CrowdPredicate,
    Expression,
    Not,
    Or,
    conjoin,
    contains_crowd_predicate,
    evaluate_tristate,
    is_crowd_unknown,
    split_conjuncts,
)
from repro.data.schema import CNULL, Column, ColumnType, Schema, is_cnull
from repro.data.table import Table
from repro.errors import ExecutionError, ExpressionError
from repro.lang.planner import (
    AggregateNode,
    CrowdFilterNode,
    CrowdJoinNode,
    CrowdOrderNode,
    DistinctNode,
    FillNode,
    FilterNode,
    JoinNode,
    LimitNode,
    LogicalPlan,
    OrderNode,
    PlanNode,
    ProjectNode,
    ScanNode,
)
from repro.obs.instrument import operator_span
from repro.operators.fill import CrowdFill
from repro.operators.sort import CrowdComparator, merge_sort_crowd
# signature_of is not called here: planning signs through question_signer.
# Kept so perfbench's tracer, which wraps this module's signature_of, finds it.
from repro.platform.cache import (
    question_signer,
    signature_of,  # noqa: F401
)
from repro.platform.platform import SimulatedPlatform
from repro.platform.task import Task, TaskType
from repro.quality.truth import MajorityVote, TruthInference

YES = "yes"
NO = "no"

#: The one key every NaN groups under: NaN != NaN, so hashing the cells
#: themselves would open a GROUP BY group (or DISTINCT row) per NaN.
_NAN = float("nan")


def group_key(value: Any) -> Any:
    """*value* as a GROUP BY / DISTINCT key, with every NaN mapped to one."""
    if isinstance(value, float) and value != value:
        return _NAN
    return value


def distinct_key(row: dict[str, Any], columns: Sequence[str]) -> tuple[Any, ...]:
    """The key DISTINCT deduplicates *row* on (its *columns*, in order)."""
    return tuple(group_key(row[c]) for c in columns)


def _default_equal_truth(a: Any, b: Any) -> bool:
    """Simulation default for CROWDEQUAL: token-normalized equality."""
    if isinstance(a, str) and isinstance(b, str):
        return sorted(a.lower().split()) == sorted(b.lower().split())
    return a == b


@dataclass
class CrowdOracle:
    """Ground truth the simulated workers answer from.

    Attributes:
        equal_fn: CROWDEQUAL(a, b) truth; defaults to normalized equality.
        filter_fn: CROWDFILTER(value, question) truth; required when the
            query uses CROWDFILTER.
        order_score_fn: Latent utility for CROWDORDER BY values; defaults
            to the value itself when numeric.
        fill_fn: (row dict, column) -> value for CNULL resolution; required
            when a referenced crowd column has unresolved cells.
        equal_similarity_prune: Optional threshold in (0, 1]: CROWDEQUAL
            over two strings with token-Jaccard below it is auto-answered
            "no" without crowd spend (machine pruning inside the executor).
    """

    equal_fn: Callable[[Any, Any], bool] = _default_equal_truth
    filter_fn: Callable[[Any, str], bool] | None = None
    order_score_fn: Callable[[Any], float] | None = None
    fill_fn: Callable[[dict[str, Any], str], Any] | None = None
    equal_similarity_prune: float | None = None


@dataclass
class ExecutionStats:
    crowd_questions: int = 0
    crowd_answers: int = 0
    crowd_cost: float = 0.0
    cells_filled: int = 0
    pairs_pruned: int = 0
    tasks_cancelled: int = 0   # pending HITs cancelled by early termination
    cost_avoided: float = 0.0  # spend avoided by those cancellations


@dataclass
class QueryResult:
    """Rows plus per-query crowd accounting."""

    columns: tuple[str, ...]
    rows: list[dict[str, Any]]
    stats: ExecutionStats = field(default_factory=ExecutionStats)
    plan_text: str = ""

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def column(self, name: str) -> list[Any]:
        """All values of one result column, in row order."""
        return [row[name] for row in self.rows]


class Executor:
    """Executes logical plans against a database + platform pair.

    Args:
        database: Catalog with the base tables.
        platform: Marketplace for crowd operators.
        redundancy: Votes per crowd question.
        inference: Aggregation for crowd votes (default majority).
        oracle: Simulation ground truth (see :class:`CrowdOracle`).
    """

    def __init__(
        self,
        database: Database,
        platform: SimulatedPlatform,
        redundancy: int = 3,
        inference: TruthInference | None = None,
        oracle: CrowdOracle | None = None,
    ):
        self.database = database
        self.platform = platform
        self.redundancy = redundancy
        self.inference = inference or MajorityVote()
        self.oracle = oracle or CrowdOracle()
        # Statement-local verdict memo, keyed by the same content signature
        # the platform's AnswerCache uses (see repro.platform.cache): a
        # repeated predicate over identical values costs zero questions
        # within a statement, and with a cache attached to the platform the
        # raw votes are also reused *across* statements.
        self._verdicts: dict[str, bool] = {}

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def execute(self, plan: LogicalPlan) -> QueryResult:
        """Run a logical plan; returns rows plus crowd accounting."""
        schema = self._schema_of(plan.root)  # raises before any purchase
        stats = ExecutionStats()
        _schema, rows = self._run(plan.root, stats)
        return QueryResult(
            columns=schema.column_names,
            rows=rows,
            stats=stats,
            plan_text=plan.explain(),
        )

    # ------------------------------------------------------------------ #
    # Node dispatch
    # ------------------------------------------------------------------ #

    def _schema_of(self, node: PlanNode) -> Schema:
        """Output schema of *node*, derived without reading a row.

        Raises the error a run would raise for a column a node's input
        lacks (projection, ORDER BY, CROWDORDER BY, aggregate, GROUP BY)
        and for join inputs that share a column name, so a statement that
        must fail fails before any crowd purchase. :meth:`_run` relies on
        this check having passed.
        """
        if isinstance(node, ScanNode):
            return self.database.table(node.table).schema
        if isinstance(node, (JoinNode, CrowdJoinNode)):
            left, right = self._schema_of(node.left), self._schema_of(node.right)
            clashes = set(left.column_names) & set(right.column_names)
            if clashes:
                raise ExecutionError(
                    f"join inputs share column name(s) {sorted(clashes)}; "
                    "rename columns so names are unique"
                )
            return left.join(right, "left", "right")
        children = node.children()
        if len(children) != 1:
            raise ExecutionError(f"unknown plan node {type(node).__name__}")
        schema = self._schema_of(children[0])
        if isinstance(node, ProjectNode):
            return schema.project(node.columns)
        if isinstance(node, AggregateNode):
            return self._aggregate_schema(node, schema)
        if isinstance(node, OrderNode):
            for column, _ascending in node.keys:
                if column not in schema:
                    raise ExecutionError(f"ORDER BY unknown column {column!r}")
        if isinstance(node, CrowdOrderNode) and node.column not in schema:
            raise ExecutionError(f"CROWDORDER BY unknown column {node.column!r}")
        return schema

    def _run(self, node: PlanNode, stats: ExecutionStats) -> tuple[Schema, list[dict[str, Any]]]:
        if isinstance(node, ScanNode):
            table = self.database.table(node.table)
            return table.schema, table.to_dicts()
        if isinstance(node, FillNode):
            return self._run_fill(node, stats)
        if isinstance(node, FilterNode):
            fast = self._vectorized_filter(node)
            if fast is not None:
                return fast
            schema, rows = self._run(node.child, stats)
            kept = [r for r in rows if node.predicate.evaluate(r) is True]
            return schema, kept
        if isinstance(node, CrowdFilterNode):
            return self._run_crowd_filter(node, stats)
        if isinstance(node, JoinNode):
            return self._run_join(node, stats, crowd=False)
        if isinstance(node, CrowdJoinNode):
            return self._run_join(node, stats, crowd=True)
        if isinstance(node, ProjectNode):
            schema, rows = self._run(node.child, stats)
            projected_schema = schema.project(node.columns)
            projected = [{c: r[c] for c in node.columns} for r in rows]
            return projected_schema, projected
        if isinstance(node, DistinctNode):
            schema, rows = self._run(node.child, stats)
            seen: set[tuple[Any, ...]] = set()
            unique = []
            for row in rows:
                key = distinct_key(row, schema.column_names)
                if key not in seen:
                    seen.add(key)
                    unique.append(row)
            return schema, unique
        if isinstance(node, OrderNode):
            schema, rows = self._run(node.child, stats)
            return schema, self._apply_order(rows, node.keys)
        if isinstance(node, CrowdOrderNode):
            return self._run_crowd_order(node, stats)
        if isinstance(node, LimitNode):
            schema, rows = self._run(node.child, stats)
            return schema, rows[: node.limit]
        if isinstance(node, AggregateNode):
            return self._run_aggregate(node, stats)
        raise ExecutionError(f"unknown plan node {type(node).__name__}")

    # ------------------------------------------------------------------ #
    # Vectorized machine-side fast paths
    # ------------------------------------------------------------------ #

    def _columnar_rows(self, node: PlanNode) -> tuple[Table, np.ndarray] | None:
        """Resolve a machine-only scan/filter subtree to (table, positions).

        Positions index the table's live row order (insertion order). Filters
        in the chain are applied vectorized, innermost first. Returns None
        when the subtree is not a pure machine-side scan/filter chain over a
        base table, or when a vectorized filter raises ``ExpressionError``;
        callers then fall back to row-at-a-time execution.
        """
        if isinstance(node, ScanNode):
            table = self.database.table(node.table)
            return table, np.arange(len(table), dtype=np.int64)
        if isinstance(node, FilterNode) and not contains_crowd_predicate(node.predicate):
            below = self._columnar_rows(node.child)
            if below is None:
                return None
            table, pos = below
            if pos.size == 0:
                return table, pos
            batch, n = self._batch_for(table, node.predicate, pos)
            try:
                true, _null, _cnull = evaluate_tristate(node.predicate, batch, n)
            except ExpressionError:
                # The row path short-circuits conjunctions per row, so an
                # error raised vectorized may not be reachable row-at-a-time;
                # the caller re-runs the exact per-row semantics instead.
                return None
            return table, pos[true]
        return None

    @staticmethod
    def _batch_for(
        table: Table, expr: Expression, pos: np.ndarray
    ) -> tuple[dict[str, ColumnVector], int]:
        """Column batch for *expr* restricted to live-order positions *pos*.

        Columns the expression references but the table lacks are left out of
        the batch so the vector evaluator raises the same "row has no column"
        error the row path does.
        """
        full = pos.size == len(table)
        batch: dict[str, ColumnVector] = {}
        for name in expr.columns():
            if name not in table.schema:
                continue
            vec = table.column_vector(name)
            if not full:
                vec = ColumnVector(vec.values[pos], vec.null[pos], vec.cnull[pos])
            batch[name] = vec
        return batch, int(pos.size)

    @staticmethod
    def _apply_order(
        rows: list[dict[str, Any]], keys: tuple[tuple[str, bool], ...]
    ) -> list[dict[str, Any]]:
        """Stable multi-key sort: apply keys minor-to-major; NULL/CNULL
        always sorts last regardless of direction."""
        ordered = list(rows)
        for column, ascending in reversed(keys):

            def missing(row: dict[str, Any], column=column) -> bool:
                value = row[column]
                return value is None or is_cnull(value)

            present = [r for r in ordered if not missing(r)]
            absent = [r for r in ordered if missing(r)]
            present.sort(key=lambda r: r[column], reverse=not ascending)
            ordered = present + absent
        return ordered

    def _vectorized_filter(self, node: FilterNode) -> tuple[Schema, list[dict[str, Any]]] | None:
        """Fuse a machine filter chain over a scan into one vectorized pass."""
        resolved = self._columnar_rows(node)
        if resolved is None:
            return None
        table, pos = resolved
        return table.schema, table.store.rows_at(pos)

    @staticmethod
    def _machine_prefix(expr: Expression) -> tuple[Expression, Expression] | None:
        """Split ``And(machine_subtree, crowd_rest)`` off a predicate tree.

        Walks the left spine of the And tree peeling crowd-dependent right
        arms; the leftmost crowd-free subtree is the machine prefix, exactly
        the unit :meth:`_eval_crowd` evaluates in one ``Expression.evaluate``
        call. Returns (prefix, rest) or None when there is no such split.
        """
        arms: list[Expression] = []
        while isinstance(expr, And) and contains_crowd_predicate(expr):
            arms.append(expr.right)
            expr = expr.left
        if not arms or contains_crowd_predicate(expr):
            return None
        arms.reverse()
        return expr, conjoin(arms)

    def _run_crowd_filter(
        self, node: CrowdFilterNode, stats: ExecutionStats
    ) -> tuple[Schema, list[dict[str, Any]]]:
        fast = self._crowd_filter_prepass(node, stats)
        if fast is not None:
            return fast
        schema, rows = self._run(node.child, stats)
        return schema, list(compress(rows, self.crowd_mask(node.predicate, rows, stats)))

    def _crowd_filter_prepass(
        self, node: CrowdFilterNode, stats: ExecutionStats
    ) -> tuple[Schema, list[dict[str, Any]]] | None:
        """Vectorize the machine-decidable prefix of a crowd filter.

        Only rows whose machine prefix is *definitely False* are dropped
        before crowd evaluation — rows where the prefix is NULL or
        CROWD_UNKNOWN still reach the crowd exactly as in the row path, so
        the sequence of purchased questions (and hence the platform RNG
        stream and every cache entry) is bit-identical.
        """
        if not contains_crowd_predicate(node.predicate):
            # Degenerate crowd filter over a machine predicate: pure
            # vectorized filter, no purchases at all.
            resolved = self._columnar_rows(node.child)
            if resolved is None:
                return None
            table, pos = resolved
            if pos.size:
                batch, n = self._batch_for(table, node.predicate, pos)
                try:
                    true, _null, _cnull = evaluate_tristate(node.predicate, batch, n)
                except ExpressionError:
                    return None
                pos = pos[true]
            return table.schema, table.store.rows_at(pos)
        split = self._machine_prefix(node.predicate)
        if split is None:
            return None
        prefix, rest = split
        resolved = self._columnar_rows(node.child)
        if resolved is None:
            return None
        table, pos = resolved
        if pos.size == 0:
            return table.schema, []
        batch, n = self._batch_for(table, prefix, pos)
        try:
            true, null, cnull = evaluate_tristate(prefix, batch, n)
        except ExpressionError:
            return None
        # _eval_crowd short-circuits an And only on definite False; a NULL or
        # CROWD_UNKNOWN prefix still buys the crowd answers, and at the crowd
        # And level CROWD_UNKNOWN counts as satisfied while NULL poisons the
        # row. Mirror all three cases exactly.
        candidate = true | null | cnull
        satisfied = (true | cnull)[candidate]
        rows = table.store.rows_at(pos[candidate])
        keep = self.crowd_mask(rest, rows, stats)
        kept = [
            row
            for row, ok, k in zip(rows, satisfied.tolist(), keep, strict=True)
            if k and ok
        ]
        return table.schema, kept

    @staticmethod
    def _equi_split(
        condition: Expression, left_schema: Schema, right_schema: Schema
    ) -> tuple[list[tuple[str, str]], list[Expression]] | None:
        """Split a join condition into equi-key column pairs + residual.

        Returns ([(left_col, right_col), ...], residual_conjuncts) or None
        when no cross-schema column equality exists (or the condition needs
        the crowd), in which case callers use the nested-loop path.
        """
        if contains_crowd_predicate(condition):
            return None
        keys: list[tuple[str, str]] = []
        residual: list[Expression] = []
        for c in split_conjuncts(condition):
            if (
                isinstance(c, Comparison)
                and c.op == "="
                and isinstance(c.left, ColumnRef)
                and isinstance(c.right, ColumnRef)
            ):
                a, b = c.left.name, c.right.name
                if a in left_schema and b in right_schema:
                    keys.append((a, b))
                    continue
                if b in left_schema and a in right_schema:
                    keys.append((b, a))
                    continue
            residual.append(c)
        if not keys:
            return None
        return keys, residual

    @staticmethod
    def _join_key(values: list[Any]) -> tuple[Any, ...] | None:
        """Hashable key tuple, or None when the row cannot equi-match.

        NULL and CNULL never compare True; NaN fails ``x == x`` under the
        row path's ``==`` but would collide with itself in a dict, so all
        three are excluded from the build and probe sides.
        """
        for v in values:
            if v is None or is_cnull(v) or v != v:
                return None
        return tuple(values)

    # ------------------------------------------------------------------ #
    # Aggregation
    # ------------------------------------------------------------------ #

    @staticmethod
    def _aggregate_value(func: str, values: list[Any]) -> Any:
        """Compute one aggregate over non-NULL/non-CNULL values."""
        if func == "COUNT":
            return len(values)
        if not values:
            return None
        if func == "SUM":
            return sum(values)
        if func == "AVG":
            return sum(values) / len(values)
        if func == "MIN":
            return min(values)
        if func == "MAX":
            return max(values)
        raise ExecutionError(f"unknown aggregate {func!r}")

    @staticmethod
    def _aggregate_schema(node: AggregateNode, schema: Schema) -> Schema:
        """Result schema of *node* over input *schema*: the grouping column
        (if any), then one column per aggregate."""
        for spec in node.aggregates:
            if spec.column is not None and spec.column not in schema:
                raise ExecutionError(f"aggregate over unknown column {spec.column!r}")
        if node.group_by is not None and node.group_by not in schema:
            raise ExecutionError(f"GROUP BY unknown column {node.group_by!r}")
        columns: list[Column] = []
        if node.group_by is not None:
            columns.append(Column(node.group_by, schema.column(node.group_by).ctype))
        for spec in node.aggregates:
            if spec.func == "COUNT":
                ctype = ColumnType.INTEGER
            elif spec.func in ("SUM", "AVG"):
                ctype = ColumnType.FLOAT
            else:  # MIN / MAX inherit the source column type
                ctype = schema.column(spec.column).ctype  # type: ignore[arg-type]
            columns.append(Column(spec.output_name, ctype))
        return Schema(columns)

    def _run_aggregate(
        self, node: AggregateNode, stats: ExecutionStats
    ) -> tuple[Schema, list[dict[str, Any]]]:
        """Group and aggregate per-column value lists.

        The lists come straight from the column arrays when the child
        resolves to a scan/filter chain, and from the child's rows
        otherwise; either way each holds the same Python values in the same
        row order, so every group, type check and ``sum`` is identical.
        """
        resolved = self._columnar_rows(node.child)
        if resolved is not None:
            table, pos = resolved
            schema, n = table.schema, int(pos.size)

            def values_of(name: str) -> list[Any]:
                return table.store.column_values(name, pos)

        else:
            schema, rows = self._run(node.child, stats)
            n = len(rows)

            def values_of(name: str) -> list[Any]:
                return [row[name] for row in rows]

        inputs = {
            spec.column: values_of(spec.column)
            for spec in node.aggregates
            if spec.column is not None
        }

        def compute(indices: Sequence[int]) -> dict[str, Any]:
            out: dict[str, Any] = {}
            for spec in node.aggregates:
                if spec.column is None:
                    out[spec.output_name] = len(indices)
                    continue
                column = inputs[spec.column]
                values = [
                    v
                    for v in (column[i] for i in indices)
                    if v is not None and v is not CNULL
                ]
                if spec.func in ("SUM", "AVG") and any(
                    not issubclass(t, (int, float)) or issubclass(t, bool)
                    for t in {type(v) for v in values}
                ):
                    raise ExecutionError(
                        f"{spec.func} requires numeric values in {spec.column!r}"
                    )
                out[spec.output_name] = self._aggregate_value(spec.func, values)
            return out

        out_schema = self._aggregate_schema(node, schema)
        if node.group_by is None:
            return out_schema, [compute(range(n))]
        buckets: dict[Any, list[int]] = {}
        for i, key in enumerate(values_of(node.group_by)):
            bucket = buckets.get(key)
            if bucket is None:  # a new key, or a NaN: normalize before opening
                bucket = buckets.setdefault(group_key(key), [])
            bucket.append(i)
        return out_schema, [
            {node.group_by: key, **compute(buckets[key])}
            for key in sorted(buckets, key=repr)
        ]

    # ------------------------------------------------------------------ #
    # Crowd-powered pieces
    # ------------------------------------------------------------------ #

    def _run_fill(
        self, node: FillNode, stats: ExecutionStats
    ) -> tuple[Schema, list[dict[str, Any]]]:
        table = self.database.table(node.table)
        pending = [c for c in table.cnull_cells() if c[1] in set(node.columns)]
        if pending:
            if self.oracle.fill_fn is None:
                raise ExecutionError(
                    f"table {node.table!r} has {len(pending)} unresolved CNULL "
                    f"cell(s) in {node.columns!r} but no fill oracle is configured"
                )
            before = self.platform.stats.cost_spent
            filler = CrowdFill(
                self.platform,
                truth_fn=self.oracle.fill_fn,
                redundancy=self.redundancy,
                inference=self.inference,
            )
            result = filler.run(table, columns=node.columns)
            stats.cells_filled += result.filled_cells
            stats.crowd_questions += result.filled_cells
            stats.crowd_answers += result.questions_asked
            stats.crowd_cost += self.platform.stats.cost_spent - before
        schema, rows = self._run(node.child, stats)
        # Re-read from the (now filled) table rows when the child is a scan.
        if isinstance(node.child, ScanNode):
            rows = table.to_dicts()
        return schema, rows

    def _run_join(
        self,
        node: JoinNode | CrowdJoinNode,
        stats: ExecutionStats,
        crowd: bool,
    ) -> tuple[Schema, list[dict[str, Any]]]:
        if not crowd:
            fast = self._columnar_join(node)
            if fast is not None:
                return fast
        left_schema, left_rows = self._run(node.left, stats)
        right_schema, right_rows = self._run(node.right, stats)
        joined_schema = left_schema.join(right_schema, "left", "right")
        out = []
        if crowd:
            with operator_span(
                self.platform, "crowdjoin", left=len(left_rows), right=len(right_rows)
            ) as span:
                keep = self.crowd_mask(
                    node.condition,
                    ({**lrow, **rrow} for lrow, rrow in product(left_rows, right_rows)),
                    stats,
                )
                out = [
                    {**lrow, **rrow}
                    for (lrow, rrow), k in zip(product(left_rows, right_rows), keep)
                    if k
                ]
                span.set_tag("matched", len(out))
        else:
            out = self._machine_join(
                left_schema, right_schema, left_rows, right_rows, node.condition
            )
        return joined_schema, out

    def _machine_join(
        self,
        left_schema: Schema,
        right_schema: Schema,
        left_rows: list[dict[str, Any]],
        right_rows: list[dict[str, Any]],
        condition: Expression,
    ) -> list[dict[str, Any]]:
        """Machine join over materialized rows: hash on equi keys if any."""
        split = self._equi_split(condition, left_schema, right_schema)
        if split is None:
            out = []
            for lrow in left_rows:
                for rrow in right_rows:
                    merged = {**lrow, **rrow}
                    if condition.evaluate(merged) is True:
                        out.append(merged)
            return out
        keys, residual = split
        lcols = [a for a, _ in keys]
        rcols = [b for _, b in keys]
        index: dict[tuple[Any, ...], list[int]] = {}
        for i, rrow in enumerate(right_rows):
            key = self._join_key([rrow[c] for c in rcols])
            if key is not None:
                index.setdefault(key, []).append(i)
        res_expr = conjoin(residual) if residual else None
        out = []
        for lrow in left_rows:
            key = self._join_key([lrow[c] for c in lcols])
            if key is None:
                continue
            for i in index.get(key, ()):
                merged = {**lrow, **right_rows[i]}
                if res_expr is None or res_expr.evaluate(merged) is True:
                    out.append(merged)
        return out

    def _columnar_join(
        self, node: JoinNode
    ) -> tuple[Schema, list[dict[str, Any]]] | None:
        """Equi-join two machine scan/filter chains on their column arrays.

        Build/probe happens on key arrays before any row dict exists; only
        matched pairs materialize. Output order is the nested-loop order —
        left rows in order, each left row's matches in right insertion
        order — so results are bit-identical to the fallback.
        """
        lres = self._columnar_rows(node.left)
        rres = self._columnar_rows(node.right) if lres is not None else None
        if lres is None or rres is None:
            return None
        ltab, lpos = lres
        rtab, rpos = rres
        left_schema, right_schema = ltab.schema, rtab.schema
        joined_schema = left_schema.join(right_schema, "left", "right")
        split = self._equi_split(node.condition, left_schema, right_schema)
        if split is None:
            return None
        keys, residual = split
        lcols = [a for a, _ in keys]
        rcols = [b for _, b in keys]
        lkeys = self._key_columns(ltab, lpos, lcols)
        rkeys = self._key_columns(rtab, rpos, rcols)
        if (
            len(keys) == 1
            and lkeys[0][0].dtype == rkeys[0][0].dtype
            and lkeys[0][0].dtype.kind in "bif"
        ):
            lmatch, rmatch = self._probe_sorted(lkeys[0], rkeys[0])
        else:
            lmatch, rmatch = self._probe_dict(lkeys, rkeys)
        # Matched pairs are still built row by row through row_dict, one dict
        # per distinct input row: perfbench's data.materialize_ms wraps only
        # row_dict, so this loop moves to rows_at with the benchmark change
        # that counts rows_at (ROADMAP item 9).
        res_expr = conjoin(residual) if residual else None
        lrids = ltab.rowids()[lpos] if lpos.size != len(ltab) else ltab.rowids()
        rrids = rtab.rowids()[rpos] if rpos.size != len(rtab) else rtab.rowids()
        lstore, rstore = ltab.store, rtab.store
        lcache: dict[int, dict[str, Any]] = {}
        rcache: dict[int, dict[str, Any]] = {}
        out = []
        for lp, rp in zip(lmatch.tolist(), rmatch.tolist(), strict=True):
            lrow = lcache.get(lp)
            if lrow is None:
                lrow = lcache[lp] = lstore.row_dict(int(lrids[lp]))
            rrow = rcache.get(rp)
            if rrow is None:
                rrow = rcache[rp] = rstore.row_dict(int(rrids[rp]))
            merged = {**lrow, **rrow}
            if res_expr is None or res_expr.evaluate(merged) is True:
                out.append(merged)
        return joined_schema, out

    @staticmethod
    def _key_columns(
        table: Table, pos: np.ndarray, cols: list[str]
    ) -> list[tuple[np.ndarray, np.ndarray]]:
        """(values, usable) per key column, restricted to positions *pos*.

        ``usable`` clears NULL/CNULL cells and float NaNs — cells that can
        never equi-match under the row path's ``==`` semantics.
        """
        out = []
        full = pos.size == len(table)
        for name in cols:
            vec = table.column_vector(name)
            values = vec.values if full else vec.values[pos]
            usable = vec.defined if full else vec.defined[pos]
            if values.dtype.kind == "f":
                usable = usable & ~np.isnan(values)
            out.append((values, usable))
        return out

    @staticmethod
    def _probe_sorted(
        lkey: tuple[np.ndarray, np.ndarray], rkey: tuple[np.ndarray, np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Single-key same-dtype build/probe via stable sort + searchsorted.

        Returns parallel (left_position, right_position) match arrays in
        nested-loop emission order.
        """
        lvals, lok = lkey
        rvals, rok = rkey
        li = np.flatnonzero(lok)
        ri = np.flatnonzero(rok)
        build = rvals[ri]
        order = np.argsort(build, kind="stable")
        skeys = build[order]
        probe = lvals[li]
        lo = np.searchsorted(skeys, probe, side="left")
        hi = np.searchsorted(skeys, probe, side="right")
        counts = hi - lo
        has = counts > 0
        counts = counts[has]
        total = int(counts.sum())
        starts = np.repeat(lo[has], counts)
        offsets = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(counts) - counts, counts
        )
        rmatch = ri[order[starts + offsets]]
        lmatch = np.repeat(li[has], counts)
        return lmatch, rmatch

    @staticmethod
    def _probe_dict(
        lkeys: list[tuple[np.ndarray, np.ndarray]],
        rkeys: list[tuple[np.ndarray, np.ndarray]],
    ) -> tuple[np.ndarray, np.ndarray]:
        """Composite/mixed-type build/probe through a Python dict.

        Tuple keys bucket by Python ``==``/``hash``, the same equality the
        row path's ``=`` comparator uses (so 1 and 1.0 share a bucket).
        """
        rok = rkeys[0][1]
        for _, usable in rkeys[1:]:
            rok = rok & usable
        rlists = [values.tolist() for values, _ in rkeys]
        index: dict[tuple[Any, ...], list[int]] = {}
        for i in np.flatnonzero(rok).tolist():
            index.setdefault(tuple(lst[i] for lst in rlists), []).append(i)
        lok = lkeys[0][1]
        for _, usable in lkeys[1:]:
            lok = lok & usable
        llists = [values.tolist() for values, _ in lkeys]
        lmatch: list[int] = []
        rmatch: list[int] = []
        for i in np.flatnonzero(lok).tolist():
            bucket = index.get(tuple(lst[i] for lst in llists))
            if bucket:
                lmatch.extend([i] * len(bucket))
                rmatch.extend(bucket)
        return np.asarray(lmatch, dtype=np.int64), np.asarray(rmatch, dtype=np.int64)

    def _run_crowd_order(
        self, node: CrowdOrderNode, stats: ExecutionStats
    ) -> tuple[Schema, list[dict[str, Any]]]:
        schema, rows = self._run(node.child, stats)
        if len(rows) < 2:
            return schema, rows
        values = [row[node.column] for row in rows]
        score_fn = self.oracle.order_score_fn
        if score_fn is None:
            if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in values):
                score_fn = float
            else:
                raise ExecutionError(
                    "CROWDORDER BY over non-numeric values requires an "
                    "order_score_fn oracle"
                )
        before = self.platform.stats.cost_spent
        comparator = CrowdComparator(
            self.platform,
            values,
            score_fn,
            redundancy=self.redundancy,
            inference=self.inference,
        )
        result = merge_sort_crowd(comparator)
        stats.crowd_questions += result.comparisons_asked
        stats.crowd_answers += result.answers_bought
        stats.crowd_cost += self.platform.stats.cost_spent - before
        order = result.order if not node.ascending else list(reversed(result.order))
        return schema, [rows[i] for i in order]

    # ------------------------------------------------------------------ #
    # Crowd-aware expression evaluation
    # ------------------------------------------------------------------ #

    def _eval_crowd(self, expr: Expression, row: dict[str, Any], stats: ExecutionStats) -> Any:
        """Evaluate *expr* on *row*, buying crowd answers as needed."""
        if isinstance(expr, CrowdPredicate):
            return self._resolve_predicate(expr, row, stats)
        if not contains_crowd_predicate(expr):
            return expr.evaluate(row)
        if isinstance(expr, And):
            lhs = self._eval_crowd(expr.left, row, stats)
            if lhs is False:
                return False
            rhs = self._eval_crowd(expr.right, row, stats)
            if rhs is False:
                return False
            if lhs is None or rhs is None:
                return None
            return True
        if isinstance(expr, Or):
            lhs = self._eval_crowd(expr.left, row, stats)
            if lhs is True:
                return True
            rhs = self._eval_crowd(expr.right, row, stats)
            if rhs is True:
                return True
            if lhs is None or rhs is None:
                return None
            return False
        if isinstance(expr, Not):
            value = self._eval_crowd(expr.operand, row, stats)
            if value is None or is_crowd_unknown(value):
                return value
            return not value
        raise ExecutionError(
            f"crowd predicates may appear only under AND/OR/NOT, not inside "
            f"{type(expr).__name__}"
        )

    def _crowd_question(
        self, predicate: CrowdPredicate, row: dict[str, Any]
    ) -> tuple[str, tuple[Any, ...]]:
        """Render *predicate* against *row* into the HIT question text."""
        values = predicate.operand_values(row)
        if predicate.kind == "equal":
            if len(values) != 2:
                raise ExecutionError("CROWDEQUAL takes exactly two operands")
            question = f"Do these refer to the same thing? A: {values[0]} | B: {values[1]}"
        elif predicate.kind == "filter":
            if len(values) != 1:
                raise ExecutionError("CROWDFILTER takes exactly one operand")
            question = f"{predicate.question} — value: {values[0]}"
        elif predicate.kind == "order":
            if len(values) != 2:
                raise ExecutionError("CROWDORDER takes exactly two operands")
            question = f"Does A rank at least as high as B? A: {values[0]} | B: {values[1]}"
        else:
            raise ExecutionError(f"unknown crowd predicate kind {predicate.kind!r}")
        return question, values

    def _plan_task(
        self,
        predicate: CrowdPredicate,
        question: str,
        values: tuple[Any, ...],
        stats: ExecutionStats,
    ) -> Task | None:
        """Build the yes/no task for *predicate*, or None when pruned."""
        if predicate.kind == "equal":
            a, b = values
            prune = self.oracle.equal_similarity_prune
            if (
                prune is not None
                and isinstance(a, str)
                and isinstance(b, str)
                and jaccard_tokens(a, b) < prune
            ):
                stats.pairs_pruned += 1
                return None
            truth = self.oracle.equal_fn(a, b)
        elif predicate.kind == "filter":
            if self.oracle.filter_fn is None:
                raise ExecutionError(
                    "query uses CROWDFILTER but no filter oracle is configured"
                )
            truth = self.oracle.filter_fn(values[0], predicate.question)
        else:
            score = self.oracle.order_score_fn or (
                lambda v: float(v) if isinstance(v, (int, float)) else 0.0
            )
            truth = score(values[0]) >= score(values[1])
        return Task(
            TaskType.SINGLE_CHOICE,
            question=question,
            options=(YES, NO),
            truth=YES if truth else NO,
        )

    def _verdict_from(self, task: Task, answers: list[Any]) -> bool:
        """Infer the yes/no verdict for *task* from its collected votes."""
        if answers:
            return self.inference.infer({task.task_id: answers}).truths[task.task_id] == YES
        # Skip/degrade failure policy: no votes came back — conservatively
        # treat the predicate as not satisfied rather than crashing.
        return False

    @classmethod
    def _single_crowd(
        cls, expr: Expression
    ) -> tuple[Expression | None, CrowdPredicate] | None:
        """Split *expr* into (machine prefix or None, its one crowd predicate).

        None when a row's later question depends on an earlier verdict: two
        or more crowd predicates, or one under OR/NOT.
        """
        if isinstance(expr, CrowdPredicate):
            return None, expr
        split = cls._machine_prefix(expr)
        if split is None or not isinstance(split[1], CrowdPredicate):
            return None
        return split

    def _plan_questions(
        self,
        prefix: Expression | None,
        predicate: CrowdPredicate,
        rows: Iterable[dict[str, Any]],
        stats: ExecutionStats,
    ) -> tuple[list[tuple[bool, str | None]], list[Task]]:
        """Plan ``prefix AND predicate`` over *rows*, in row order.

        Returns one ``(ok, signature)`` per row and one task per signature
        that neither the verdict memo nor an earlier row of this call holds;
        each task carries its signature. A row whose machine *prefix* is
        False asks nothing (signature None). A NULL prefix still asks but
        poisons the row (``ok`` False), exactly as :meth:`_eval_crowd`'s
        And does. Similarity-pruned questions are decided False here. Every
        question is a yes/no one, so one signer signs them all.
        """
        planned: list[tuple[bool, str | None]] = []
        tasks: list[Task] = []
        new: set[str] = set()
        verdicts = self._verdicts
        sign = question_signer(TaskType.SINGLE_CHOICE, (YES, NO))
        for row in rows:
            ok = True
            if prefix is not None:
                value = prefix.evaluate(row)
                if value is False:
                    planned.append((False, None))
                    continue
                ok = value is not None
            question, values = self._crowd_question(predicate, row)
            signature = sign(question)
            if signature not in verdicts and signature not in new:
                task = self._plan_task(predicate, question, values, stats)
                if task is None:
                    verdicts[signature] = False
                else:
                    task.signature = signature
                    new.add(signature)
                    tasks.append(task)
            planned.append((ok, signature))
        return planned, tasks

    def _decide(self, task: Task, answers: list[Any], stats: ExecutionStats) -> None:
        """Record the verdict of one planned *task* from its *answers*."""
        self._verdicts[task.signature] = self._verdict_from(task, answers)
        stats.crowd_questions += 1
        stats.crowd_answers += len(answers)

    def crowd_mask(
        self, expr: Expression, rows: Iterable[dict[str, Any]], stats: ExecutionStats
    ) -> list[bool]:
        """Whether each of *rows* satisfies crowd-dependent *expr*.

        One crowd question per row is planned for all rows and bought in
        one collect; other shapes evaluate row by row through
        :meth:`_eval_crowd`, whose short-circuit decides what to ask next.
        """
        shape = self._single_crowd(expr)
        if shape is None:
            return [self._eval_crowd(expr, row, stats) is True for row in rows]
        planned, tasks = self._plan_questions(*shape, rows, stats)
        if tasks:
            before = self.platform.stats.cost_spent
            collected = self.platform.collect(tasks, redundancy=self.redundancy)
            for task in tasks:
                self._decide(task, collected.get(task.task_id, []), stats)
            stats.crowd_cost += self.platform.stats.cost_spent - before
        return [ok and self._verdicts[signature] for ok, signature in planned]

    def _resolve_predicate(
        self, predicate: CrowdPredicate, row: dict[str, Any], stats: ExecutionStats
    ) -> bool:
        """Plan one row's question, then buy and decide it if it is new."""
        return self.crowd_mask(predicate, [row], stats)[0]
