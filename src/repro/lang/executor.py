"""Pull-based executor for CrowdSQL logical plans.

Machine operators evaluate rows directly; crowd operators route through the
platform with the configured redundancy and truth-inference method. Ground
truth for the simulated workers comes from a :class:`CrowdOracle`, which a
real deployment would simply omit (workers would supply knowledge instead).

A crowd operator posts its questions as one batch of HITs, as CrowdDB and
Qurk do. A CROWDFILTER, a CROWDJOIN, or the crowd WHERE of UPDATE/DELETE
is evaluated one crowd predicate at a time (:meth:`Executor.crowd_mask`):
each predicate renders its question for every row that still needs it, in
row order, computes the content signature once (one ``question_signer``
per call encodes all but the question, so a row costs one hash), skips
what the statement's verdict memo already decided, and buys every new
question in one ``platform.collect`` (one scheduler run); one inference
call then decides the run's verdicts, each from its own task's votes
(:meth:`~repro.quality.truth.TruthInference.infer_each`). An AND asks its
right arm only on rows its left arm left not False, an OR only on rows
left not True, so every row is asked exactly the questions a per-row
short circuit would ask. The signature rides on the task, so the answer
cache never hashes it again. The streaming executor
(:mod:`repro.lang.streaming`) plans and decides through the same steps.

Before any of that, :meth:`Executor.execute` derives every plan node's
output schema (:meth:`Executor._schema_of`) and checks every crowd
predicate (:meth:`Executor.check_crowd_condition`), so a statement that
names a column its input lacks, or a crowd predicate that cannot be asked,
fails before it buys a crowd answer.

Machine-side work runs on the column store's arrays where the plan shape
allows it: scan/filter chains over a base table evaluate one fused
predicate, machine equi-joins build/probe on key arrays, and aggregates
code their group keys in one pass and reduce each group's slice of the
per-column value lists. Row dicts are built only for rows
a node returns or hands to the crowd, one column at a time
(:meth:`~repro.data.columnstore.ColumnStore.rows_at`); the hash join
still builds its matched rows through ``row_dict``. Either way a row
holds only the columns the nodes above it read (:func:`input_columns`):
a scan or fused filter chain builds its consumer's columns, the hash
join its consumer's plus its residual's. Every fast path
produces bit-identical rows, ordering, and crowd purchase sequences to the
row-at-a-time code, which stays in place as the fallback for plan shapes
the columnar resolver does not cover.

Per-run accounting (questions, answers, spend) is collected in
:class:`ExecutionStats` so the T7 benchmark can compare plans.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from itertools import compress, product
from operator import itemgetter
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
    count_crowd_operators,
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

#: Operand count of each crowd predicate kind, and the error for another.
_CROWD_OPERANDS = {
    "equal": (2, "CROWDEQUAL takes exactly two operands"),
    "filter": (1, "CROWDFILTER takes exactly one operand"),
    "order": (2, "CROWDORDER takes exactly two operands"),
}

#: The one key every NaN groups under: NaN != NaN, so hashing the cells
#: themselves would open a GROUP BY group (or DISTINCT row) per NaN.
_NAN = float("nan")

#: Group codes up to this many fit ``uint16``, which numpy sorts stably by
#: radix sort (~10x faster than its stable sort of wider integers).
_RADIX_GROUPS = 1 << 16

#: Arrays whose defined cells ``tolist`` into plain ints or floats only.
_CLEAN_DTYPES = (np.dtype(np.int64), np.dtype(np.float64))


def group_key(value: Any) -> Any:
    """*value* as a GROUP BY / DISTINCT key, with every NaN mapped to one."""
    if isinstance(value, float) and value != value:
        return _NAN
    return value


def distinct_key(row: dict[str, Any], columns: Sequence[str]) -> tuple[Any, ...]:
    """The key DISTINCT deduplicates *row* on (its *columns*, in order)."""
    return tuple(group_key(row[c]) for c in columns)


#: The columns a node's consumer reads: a set of names, or None for every
#: column of the node's output.
Columns = frozenset[str] | None


def input_columns(node: PlanNode, columns: Columns) -> Columns:
    """The columns *node* reads of its input when its consumer reads *columns*.

    One rule per node kind. A projection reads its own columns; DISTINCT
    and FILL read every column; an aggregate reads its GROUP BY and
    aggregated columns. Otherwise the node adds what it reads itself: a
    filter or crowd filter its predicate's columns, a join or crowd join
    its condition's (residual included; the set spans both inputs), ORDER
    BY its keys and CROWDORDER BY its column. LIMIT reads what its consumer
    reads.
    """
    if isinstance(node, ProjectNode):
        return frozenset(node.columns)
    if isinstance(node, (DistinctNode, FillNode)):
        return None
    if isinstance(node, AggregateNode):
        read = {spec.column for spec in node.aggregates if spec.column is not None}
        return frozenset(read if node.group_by is None else read | {node.group_by})
    if columns is None:
        return None
    if isinstance(node, (FilterNode, CrowdFilterNode)):
        return columns | node.predicate.columns()
    if isinstance(node, (JoinNode, CrowdJoinNode)):
        return columns | node.condition.columns()
    if isinstance(node, OrderNode):
        return columns.union(column for column, _ascending in node.keys)
    if isinstance(node, CrowdOrderNode):
        return columns | {node.column}
    return columns


def _side(columns: Columns, schema: Schema) -> Columns:
    """The part of *columns* a join input with *schema* supplies."""
    return None if columns is None else frozenset(c for c in columns if c in schema)


def _check_columns(expr: Expression, schema: Schema) -> None:
    """Raise the row path's error for a column *expr* reads that *schema* lacks."""
    for name in sorted(expr.columns()):
        if name not in schema:
            raise ExpressionError(f"row has no column {name!r}")


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
            to the value itself over an INTEGER or FLOAT column (any other
            column type requires one).
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
    tasks_cancelled: int = 0   # candidates a streamed LIMIT never reached
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
        platform: Marketplace for crowd operators; None runs only plans
            without one (:meth:`execute` raises otherwise).
        redundancy: Votes per crowd question.
        inference: Aggregation for crowd votes (default majority).
        oracle: Simulation ground truth (see :class:`CrowdOracle`).
    """

    def __init__(
        self,
        database: Database,
        platform: SimulatedPlatform | None,
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
        if self.platform is None and count_crowd_operators(plan):
            raise ExecutionError("query requires crowd work but the session has no platform")
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
        lacks (projection, ORDER BY, CROWDORDER BY, aggregate, GROUP BY),
        for join inputs that share a column name, for a crowd filter or
        crowd join condition that cannot be asked
        (:meth:`check_crowd_condition`), and for a CROWDORDER BY no oracle
        can score (a non-numeric column without ``order_score_fn``), so a
        statement that must fail fails before any crowd purchase.
        :meth:`_run` relies on this check having passed.
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
            joined = left.join(right, "left", "right")
            if isinstance(node, CrowdJoinNode):
                self.check_crowd_condition(node.condition, joined)
            return joined
        children = node.children()
        if len(children) != 1:
            raise ExecutionError(f"unknown plan node {type(node).__name__}")
        schema = self._schema_of(children[0])
        if isinstance(node, CrowdFilterNode):
            self.check_crowd_condition(node.predicate, schema)
        if isinstance(node, ProjectNode):
            return schema.project(node.columns)
        if isinstance(node, AggregateNode):
            return self._aggregate_schema(node, schema)
        if isinstance(node, OrderNode):
            for column, _ascending in node.keys:
                if column not in schema:
                    raise ExecutionError(f"ORDER BY unknown column {column!r}")
        if isinstance(node, CrowdOrderNode):
            if node.column not in schema:
                raise ExecutionError(f"CROWDORDER BY unknown column {node.column!r}")
            ctype = schema.column(node.column).ctype
            numeric = ctype in (ColumnType.INTEGER, ColumnType.FLOAT)
            if self.oracle.order_score_fn is None and not numeric:
                raise ExecutionError(
                    f"CROWDORDER BY over a {ctype.value} column requires an "
                    "order_score_fn oracle"
                )
        return schema

    def _run(
        self, node: PlanNode, stats: ExecutionStats, columns: Columns = None
    ) -> tuple[Schema, list[dict[str, Any]]]:
        """*node*'s output schema and rows.

        *columns* names the columns *node*'s consumer reads (None: every
        column). Each row holds at least those, in schema order, and may
        hold more; the schema is always the node's whole output schema.
        Each node asks its input for :func:`input_columns`.
        """
        if isinstance(node, ScanNode):
            table = self.database.table(node.table)
            return table.schema, table.to_dicts(columns)
        if isinstance(node, FillNode):
            return self._run_fill(node, stats)
        if isinstance(node, FilterNode):
            fast = self._vectorized_filter(node, columns)
            if fast is not None:
                return fast
            schema, rows = self._run(node.child, stats, input_columns(node, columns))
            kept = [r for r in rows if node.predicate.evaluate(r) is True]
            return schema, kept
        if isinstance(node, CrowdFilterNode):
            return self._run_crowd_filter(node, stats, columns)
        if isinstance(node, JoinNode):
            return self._run_join(node, stats, columns, crowd=False)
        if isinstance(node, CrowdJoinNode):
            return self._run_join(node, stats, columns, crowd=True)
        if isinstance(node, ProjectNode):
            schema, rows = self._run(node.child, stats, input_columns(node, columns))
            projected_schema = schema.project(node.columns)
            projected = [{c: r[c] for c in node.columns} for r in rows]
            return projected_schema, projected
        if isinstance(node, DistinctNode):
            schema, rows = self._run(node.child, stats, input_columns(node, columns))
            seen: set[tuple[Any, ...]] = set()
            unique = []
            for row in rows:
                key = distinct_key(row, schema.column_names)
                if key not in seen:
                    seen.add(key)
                    unique.append(row)
            return schema, unique
        if isinstance(node, OrderNode):
            schema, rows = self._run(node.child, stats, input_columns(node, columns))
            return schema, self._apply_order(rows, node.keys)
        if isinstance(node, CrowdOrderNode):
            return self._run_crowd_order(node, stats, columns)
        if isinstance(node, LimitNode):
            schema, rows = self._run(node.child, stats, input_columns(node, columns))
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
            batch[name] = table.column_vector(name) if full else table.store.vector_at(name, pos)
        return batch, int(pos.size)

    @staticmethod
    def _apply_order(
        rows: list[dict[str, Any]], keys: tuple[tuple[str, bool], ...]
    ) -> list[dict[str, Any]]:
        """Stable multi-key sort: apply keys minor-to-major.

        In either direction NaN cells follow every other value and NULL/CNULL
        cells follow those, each in input order: NaN compares False both
        ways, so sorting it with the numbers would leave it where it stood.
        """
        ordered = list(rows)
        for column, ascending in reversed(keys):
            present: list[dict[str, Any]] = []
            nans: list[dict[str, Any]] = []
            absent: list[dict[str, Any]] = []
            for row in ordered:
                value = row[column]
                if value is None or value is CNULL:
                    absent.append(row)
                elif value != value:
                    nans.append(row)
                else:
                    present.append(row)
            present.sort(key=itemgetter(column), reverse=not ascending)
            ordered = present + nans + absent
        return ordered

    def _vectorized_filter(
        self, node: FilterNode, columns: Columns
    ) -> tuple[Schema, list[dict[str, Any]]] | None:
        """Fuse a machine filter chain over a scan into one vectorized pass.

        The predicates read the column arrays, so the rows hold only the
        *columns* the consumer reads.
        """
        resolved = self._columnar_rows(node)
        if resolved is None:
            return None
        table, pos = resolved
        return table.schema, table.store.rows_at(pos, columns)

    def _run_crowd_filter(
        self, node: CrowdFilterNode, stats: ExecutionStats, columns: Columns
    ) -> tuple[Schema, list[dict[str, Any]]]:
        schema, rows = self._run(node.child, stats, input_columns(node, columns))
        with operator_span(self.platform, "crowd_filter", items=len(rows)):
            keep = self.crowd_mask(node.predicate, rows, stats)
        return schema, list(compress(rows, keep))

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
        """Compute one aggregate over non-NULL/non-CNULL values.

        MIN and MAX skip NaN unless every value is NaN: NaN compares False
        both ways, so ``min``/``max`` would otherwise depend on row order.
        """
        if func == "COUNT":
            return len(values)
        if not values:
            return None
        if func == "SUM":
            return sum(values)
        if func == "AVG":
            return sum(values) / len(values)
        if func in ("MIN", "MAX"):
            numbers = [v for v in values if v == v]
            return (min if func == "MIN" else max)(numbers or values)
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

    @staticmethod
    def _code_groups(
        keys: ColumnVector | list[Any], sort: bool
    ) -> tuple[list[Any], np.ndarray, np.ndarray | None]:
        """The groups of *keys*, each group's size, and (if *sort*) the row
        order that puts each group's rows in one slice, in row order.

        The coder follows the keys. An ``int64`` array with no NULL or CNULL
        cell is coded by ``np.unique``: distinct ints have no first object
        or NaN to keep. Every other key, a row path's list among them, is
        coded in first-seen order: ``dict.fromkeys`` deduplicates with the
        ``==``/hash a dict of buckets uses and keeps each key's first object,
        and :func:`group_key` folds every NaN into one group.
        """
        if (
            isinstance(keys, ColumnVector)
            and keys.values.dtype == np.int64
            and not (keys.null.any() or keys.cnull.any())
        ):
            unique, sizes = np.unique(keys.values, return_counts=True)
            order = np.argsort(keys.values, kind="stable") if sort else None
            return unique.tolist(), sizes, order
        if isinstance(keys, ColumnVector):
            keys = keys.to_list()
        codes_of_groups: dict[Any, int] = {}
        code_of = {
            key: codes_of_groups.setdefault(group_key(key), len(codes_of_groups))
            for key in dict.fromkeys(keys)
        }
        codes = np.fromiter(map(code_of.__getitem__, keys), dtype=np.intp, count=len(keys))
        sizes = np.bincount(codes, minlength=len(codes_of_groups))
        order = None
        if sort:
            if len(codes_of_groups) <= _RADIX_GROUPS:
                codes = codes.astype(np.uint16)  # numpy sorts these stably by radix
            order = np.argsort(codes, kind="stable")
        return list(codes_of_groups), sizes, order

    def _run_aggregate(
        self, node: AggregateNode, stats: ExecutionStats
    ) -> tuple[Schema, list[dict[str, Any]]]:
        """Group in one pass: code the keys, order the rows by code, reduce slices.

        :meth:`_code_groups` codes the keys and sizes the groups. When an
        aggregate reads a column, each aggregated column is gathered once in
        group order: from the column arrays when the child resolves to a
        scan/filter chain, from the child's rows otherwise. COUNT(*) is a
        slice's length. ``SUM``/``AVG`` are Python ``sum`` over the same
        values in the same order as a per-group loop, so every float is the
        same. The None/CNULL filter and the numeric type check are skipped
        only for an ``int64`` or ``float64`` array with no NULL or CNULL
        cell selected, where both are no-ops. Groups are reduced in ``repr``
        order, the order the rows are returned in, so the first error raised
        is the first group's.
        """
        resolved = self._columnar_rows(node.child)
        if resolved is not None:
            table, pos = resolved
            schema, n, store = table.schema, int(pos.size), table.store
        else:
            schema, rows = self._run(node.child, stats, input_columns(node, None))
            n = len(rows)
        out_schema = self._aggregate_schema(node, schema)
        specs = [(spec.output_name, spec.func, spec.column) for spec in node.aggregates]
        read = list(dict.fromkeys(column for _, _, column in specs if column is not None))
        group_by = node.group_by
        if group_by is None:
            groups, sizes, order = [None], np.array([n]), None
        else:
            keys = (
                store.vector_at(group_by, pos)
                if resolved is not None
                else [row[group_by] for row in rows]
            )
            groups, sizes, order = self._code_groups(keys, sort=bool(read))
        columns: dict[str, list[Any]] = {}
        checked: set[str] = set()  # columns whose cells need the None/CNULL filter
        if resolved is not None:
            gathered = pos if order is None else pos[order]
            for name in read:
                vec = store.vector_at(name, gathered)
                columns[name] = vec.to_list()
                if vec.values.dtype not in _CLEAN_DTYPES or vec.null.any() or vec.cnull.any():
                    checked.add(name)
        else:
            ordered = rows if order is None else [rows[i] for i in order.tolist()]
            columns = {name: [r[name] for r in ordered] for name in read}
            checked.update(read)
        stops = np.cumsum(sizes).tolist()
        counts = sizes.tolist()
        reprs = list(map(repr, groups))
        out = []
        for g in sorted(range(len(groups)), key=reprs.__getitem__):
            stop = stops[g]
            start = stop - counts[g]
            row: dict[str, Any] = {} if group_by is None else {group_by: groups[g]}
            for name, func, column in specs:
                if column is None:
                    row[name] = counts[g]
                    continue
                values = columns[column][start:stop]
                if column in checked:
                    values = [v for v in values if v is not None and v is not CNULL]
                    if func in ("SUM", "AVG") and any(
                        not issubclass(t, (int, float)) or issubclass(t, bool)
                        for t in {type(v) for v in values}
                    ):
                        raise ExecutionError(f"{func} requires numeric values in {column!r}")
                row[name] = self._aggregate_value(func, values)
            out.append(row)
        return out_schema, out

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
        columns: Columns,
        crowd: bool,
    ) -> tuple[Schema, list[dict[str, Any]]]:
        if not crowd:
            fast = self._columnar_join(node, columns)
            if fast is not None:
                return fast
        reads = input_columns(node, columns)
        left_schema, left_rows = self._run(
            node.left, stats, _side(reads, self._schema_of(node.left))
        )
        right_schema, right_rows = self._run(
            node.right, stats, _side(reads, self._schema_of(node.right))
        )
        joined_schema = left_schema.join(right_schema, "left", "right")
        out = []
        if crowd:
            with operator_span(
                self.platform, "crowdjoin", left=len(left_rows), right=len(right_rows)
            ) as span:
                pairs = [{**lrow, **rrow} for lrow, rrow in product(left_rows, right_rows)]
                out = list(compress(pairs, self.crowd_mask(node.condition, pairs, stats)))
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
        self, node: JoinNode, columns: Columns
    ) -> tuple[Schema, list[dict[str, Any]]] | None:
        """Equi-join two machine scan/filter chains on their column arrays.

        Build/probe happens on key arrays before any row dict exists; only
        matched pairs materialize, each with the *columns* the consumer
        reads and the residual's. Output order is the nested-loop order —
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
        # per distinct input row, each cell one ``ndarray.item``. A row holds
        # only the columns the consumer and the residual read (the keys were
        # probed on arrays): perfbench's data.materialize_ms wraps only
        # row_dict, so this loop moves to rows_at with the benchmark change
        # that counts rows_at (ROADMAP item 9).
        res_expr = conjoin(residual) if residual else None
        reads = None if columns is None else columns.union(*(c.columns() for c in residual))
        lreads, rreads = _side(reads, left_schema), _side(reads, right_schema)
        lrids = ltab.rowids()[lpos] if lpos.size != len(ltab) else ltab.rowids()
        rrids = rtab.rowids()[rpos] if rpos.size != len(rtab) else rtab.rowids()
        lstore, rstore = ltab.store, rtab.store
        lcache: dict[int, dict[str, Any]] = {}
        rcache: dict[int, dict[str, Any]] = {}
        out = []
        for lp, rp in zip(lmatch.tolist(), rmatch.tolist(), strict=True):
            lrow = lcache.get(lp)
            if lrow is None:
                lrow = lcache[lp] = lstore.row_dict(lrids.item(lp), lreads)
            rrow = rcache.get(rp)
            if rrow is None:
                rrow = rcache[rp] = rstore.row_dict(rrids.item(rp), rreads)
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
            vec = table.column_vector(name) if full else table.store.vector_at(name, pos)
            values, usable = vec.values, vec.defined
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
        """Build/probe through a Python dict (strings, mixed types, composites).

        A one-column key probes the column's raw values, a composite key
        tuples of them; either way keys bucket by Python ``==``/``hash``,
        the equality the row path's ``=`` comparator uses (so 1 and 1.0
        share a bucket).
        """

        def probe_keys(keys: list[tuple[np.ndarray, np.ndarray]]) -> tuple[list[Any], list[int]]:
            ok = keys[0][1]
            for _, usable in keys[1:]:
                ok = ok & usable
            lists = [values.tolist() for values, _ in keys]
            sequence = lists[0] if len(lists) == 1 else list(zip(*lists))
            return sequence, np.flatnonzero(ok).tolist()

        rseq, rrows = probe_keys(rkeys)
        index: dict[Any, list[int]] = {}
        for i in rrows:
            index.setdefault(rseq[i], []).append(i)
        lseq, lrows = probe_keys(lkeys)
        lmatch: list[int] = []
        rmatch: list[int] = []
        for i in lrows:
            bucket = index.get(lseq[i])
            if bucket:
                lmatch.extend([i] * len(bucket))
                rmatch.extend(bucket)
        return np.asarray(lmatch, dtype=np.int64), np.asarray(rmatch, dtype=np.int64)

    def _run_crowd_order(
        self, node: CrowdOrderNode, stats: ExecutionStats, columns: Columns
    ) -> tuple[Schema, list[dict[str, Any]]]:
        schema, rows = self._run(node.child, stats, input_columns(node, columns))
        # NULL/CNULL cells are never asked about: they follow the sorted
        # rows in input order, as ORDER BY puts them.
        present: list[dict[str, Any]] = []
        absent: list[dict[str, Any]] = []
        for row in rows:
            value = row[node.column]
            (absent if value is None or is_cnull(value) else present).append(row)
        if len(present) < 2:
            return schema, present + absent
        before = self.platform.stats.cost_spent
        comparator = CrowdComparator(
            self.platform,
            [row[node.column] for row in present],
            self.oracle.order_score_fn or float,  # _schema_of checked the type
            redundancy=self.redundancy,
            inference=self.inference,
        )
        result = merge_sort_crowd(comparator)
        stats.crowd_questions += result.comparisons_asked
        stats.crowd_answers += result.answers_bought
        stats.crowd_cost += self.platform.stats.cost_spent - before
        order = result.order if not node.ascending else list(reversed(result.order))
        return schema, [present[i] for i in order] + absent

    # ------------------------------------------------------------------ #
    # Crowd-aware expression evaluation
    # ------------------------------------------------------------------ #

    def check_crowd_condition(self, expr: Expression, schema: Schema) -> None:
        """Raise now whatever evaluating *expr* over rows of *schema* must.

        A crowd predicate sits only under AND, OR or NOT; its kind is known
        and has the right number of operands; a CROWDFILTER has a filter
        oracle; and every column the condition names exists. Every arm is
        checked, whether or not a row reaches it, so a statement that must
        fail fails before its first purchase.
        """
        if isinstance(expr, (And, Or)):
            self.check_crowd_condition(expr.left, schema)
            self.check_crowd_condition(expr.right, schema)
        elif isinstance(expr, Not):
            self.check_crowd_condition(expr.operand, schema)
        elif isinstance(expr, CrowdPredicate):
            for operand in expr.operands:
                _check_columns(operand, schema)
            if expr.kind not in _CROWD_OPERANDS:
                raise ExecutionError(f"unknown crowd predicate kind {expr.kind!r}")
            count, message = _CROWD_OPERANDS[expr.kind]
            if len(expr.operands) != count:
                raise ExecutionError(message)
            if expr.kind == "filter" and self.oracle.filter_fn is None:
                raise ExecutionError("query uses CROWDFILTER but no filter oracle is configured")
        elif contains_crowd_predicate(expr):
            raise ExecutionError(
                f"crowd predicates may appear only under AND/OR/NOT, not inside "
                f"{type(expr).__name__}"
            )
        else:
            _check_columns(expr, schema)

    def _crowd_question(
        self, predicate: CrowdPredicate, row: dict[str, Any]
    ) -> tuple[str, tuple[Any, ...]]:
        """Render *predicate* against *row* into the HIT question text."""
        values = predicate.operand_values(row)
        if predicate.kind == "equal":
            question = f"Do these refer to the same thing? A: {values[0]} | B: {values[1]}"
        elif predicate.kind == "filter":
            question = f"{predicate.question} — value: {values[0]}"
        else:  # order
            question = f"Does A rank at least as high as B? A: {values[0]} | B: {values[1]}"
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

    def _plan_rows(
        self,
        predicate: CrowdPredicate,
        rows: Iterable[dict[str, Any]],
        stats: ExecutionStats,
    ) -> Iterator[tuple[str, Task | None]]:
        """Plan *predicate*'s question on each of *rows*, lazily, in row order.

        Yields each row's signature with the task it needs: a new task,
        carrying its signature, for a signature that neither the verdict
        memo nor an earlier row holds, else None. Similarity-pruned
        questions are decided False here. Every question is a yes/no one,
        so one signer signs them all. A row is rendered, signed and asked
        of the oracle only when the consumer pulls it.
        """
        new: set[str] = set()
        verdicts = self._verdicts
        sign = question_signer(TaskType.SINGLE_CHOICE, (YES, NO))
        for row in rows:
            question, values = self._crowd_question(predicate, row)
            signature = sign(question)
            task = None
            if signature not in verdicts and signature not in new:
                task = self._plan_task(predicate, question, values, stats)
                if task is None:
                    verdicts[signature] = False
                else:
                    task.signature = signature
                    new.add(signature)
            yield signature, task

    def _plan_questions(
        self,
        predicate: CrowdPredicate,
        rows: Sequence[dict[str, Any]],
        stats: ExecutionStats,
    ) -> tuple[list[str], list[Task]]:
        """Plan every row (:meth:`_plan_rows`): one signature per row, one
        task per new signature."""
        planned = list(self._plan_rows(predicate, rows, stats))
        return [s for s, _ in planned], [t for _, t in planned if t is not None]

    def _decide(
        self,
        tasks: Sequence[Task],
        answers: Mapping[str, list[Any]],
        stats: ExecutionStats,
    ) -> None:
        """Record the yes/no verdicts of planned *tasks* with one inference call.

        *answers* maps task ids to their collected votes. Each task is
        decided from its own votes (:meth:`TruthInference.infer_each`); a
        task whose votes never came back (skip/degrade failure policy) is
        conservatively decided False.
        """
        evidence = {task.task_id: answers.get(task.task_id, []) for task in tasks}
        truths = self.inference.infer_each(evidence)
        verdicts = self._verdicts
        for task in tasks:
            verdicts[task.signature] = truths.get(task.task_id) == YES
        stats.crowd_questions += len(tasks)
        stats.crowd_answers += sum(map(len, evidence.values()))

    def crowd_mask(
        self, expr: Expression, rows: Sequence[dict[str, Any]], stats: ExecutionStats
    ) -> list[bool]:
        """Whether each of *rows* satisfies crowd-dependent *expr*.

        *expr* must have passed :meth:`check_crowd_condition`. Each crowd
        predicate in it costs at most one scheduler run (:meth:`_crowd_values`).
        """
        return [value is True for value in self._crowd_values(expr, rows, stats)]

    def _crowd_values(
        self, expr: Expression, rows: Sequence[dict[str, Any]], stats: ExecutionStats
    ) -> list[Any]:
        """The three-valued value of *expr* on each of *rows*.

        A crowd predicate plans its question on every row it is given, buys
        the new ones in one ``platform.collect`` and decides them with one
        inference call (:meth:`_decide`); a machine subtree evaluates row by
        row. AND evaluates its right arm only on rows whose left value is
        not False, OR only on rows whose left value is not True, so each row
        is asked what a per-row short circuit asks. The arms combine as that
        short circuit does: NULL poisons the row and CROWD_UNKNOWN counts as
        satisfied under AND; NOT flips True and False and keeps NULL and
        CROWD_UNKNOWN.
        """
        if isinstance(expr, CrowdPredicate):
            signatures, tasks = self._plan_questions(expr, rows, stats)
            if tasks:
                before = self.platform.stats.cost_spent
                collected = self.platform.collect(tasks, redundancy=self.redundancy)
                self._decide(tasks, collected, stats)
                stats.crowd_cost += self.platform.stats.cost_spent - before
            return [self._verdicts[signature] for signature in signatures]
        if not contains_crowd_predicate(expr):
            return [expr.evaluate(row) for row in rows]
        if isinstance(expr, Not):
            return [
                value if value is None or is_crowd_unknown(value) else not value
                for value in self._crowd_values(expr.operand, rows, stats)
            ]
        # And or Or: the left value that settles a row without the right arm.
        settles = isinstance(expr, Or)
        values = self._crowd_values(expr.left, rows, stats)
        todo = [i for i, value in enumerate(values) if value is not settles]
        right = self._crowd_values(expr.right, [rows[i] for i in todo], stats)
        for i, value in zip(todo, right, strict=True):
            if value is settles:
                values[i] = settles
            elif values[i] is None or value is None:
                values[i] = None
            else:
                values[i] = not settles
        return values
