"""CrowdSQL session: parse → plan → optimize → execute.

:class:`CrowdSQLSession` is the REPL-style entry point the declarative
systems expose — CrowdDB's "SQL with CROWD in it". It owns a database
catalog, a platform connection, and the quality configuration, and runs
scripts of ';'-separated statements.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from itertools import compress
from typing import Any

from repro.data.database import Database
from repro.data.expressions import contains_crowd_predicate
from repro.data.schema import Column, ColumnType, Schema
from repro.errors import ExecutionError, ExpressionError, UnknownColumnError
from repro.lang.ast_nodes import (
    CreateTable,
    Delete,
    DropTable,
    Explain,
    Insert,
    Select,
    Statement,
    Update,
)
from repro.lang.executor import CrowdOracle, ExecutionStats, Executor, QueryResult
from repro.lang.optimizer import CostModel, Optimizer, estimate_plan_cost
from repro.lang.parser import parse
from repro.lang.planner import build_plan
from repro.lang.streaming import StreamingExecutor
from repro.platform.platform import SimulatedPlatform
from repro.quality.truth import TruthInference

_TYPE_MAP = {
    "STRING": ColumnType.STRING,
    "INTEGER": ColumnType.INTEGER,
    "FLOAT": ColumnType.FLOAT,
    "BOOLEAN": ColumnType.BOOLEAN,
}


@dataclass
class StatementResult:
    """Outcome of one non-query statement."""

    kind: str           # created | dropped | inserted | updated | deleted
    table: str
    row_count: int = 0


#: Statement-node class → SQL verb, for profiler/run-status labels.
_STATEMENT_VERBS = {
    "CreateTable": "CREATE TABLE",
    "DropTable": "DROP TABLE",
    "Insert": "INSERT",
    "Select": "SELECT",
    "Update": "UPDATE",
    "Delete": "DELETE",
}


def describe_statement(statement: Statement) -> str:
    """Short human label for *statement* (verb + target table).

    The parser does not retain source text, so this is the closest thing
    to the statement itself the profiler and ``/run`` endpoint can show.
    """
    if isinstance(statement, Explain):
        return "EXPLAIN " + describe_statement(statement.select)
    verb = _STATEMENT_VERBS.get(type(statement).__name__, type(statement).__name__)
    target = getattr(statement, "table", None) or getattr(statement, "name", None)
    return f"{verb} {target}" if target else verb


class CrowdSQLSession:
    """Execute CrowdSQL against a database and a crowd platform.

    Args:
        database: Catalog (a fresh one is created when omitted).
        platform: Marketplace; required only when queries touch the crowd.
        redundancy: Votes per crowd question.
        inference: Vote aggregation method.
        oracle: Simulation ground truth for crowd answers.
        optimize: Apply the rule-based optimizer (on by default; the T7
            benchmark turns it off to measure the difference).
        profiler: Optional :class:`~repro.obs.profiler.QueryProfiler`;
            when set, every executed statement is bracketed and lands in
            the profile document.
        pipeline: Stream SELECTs through the
            :class:`~repro.lang.streaming.StreamingExecutor` (answers flow
            downstream per wave; TOP-K/LIMIT cancels pending upstream
            HITs). Off by default; without early termination both
            executors buy the same answers.
    """

    def __init__(
        self,
        database: Database | None = None,
        platform: SimulatedPlatform | None = None,
        redundancy: int = 3,
        inference: TruthInference | None = None,
        oracle: CrowdOracle | None = None,
        optimize: bool = True,
        profiler: Any | None = None,
        pipeline: bool = False,
    ):
        # `is None` check: an empty Database is falsy (it defines __len__).
        self.database = Database() if database is None else database
        self.platform = platform
        self.redundancy = redundancy
        self.inference = inference
        self.oracle = oracle or CrowdOracle()
        self.optimize = optimize
        self.profiler = profiler
        self.pipeline = pipeline
        #: Label of the statement currently executing (the /run endpoint
        #: reads this from the server thread), or None when idle.
        self.current_statement: str | None = None

    # ------------------------------------------------------------------ #

    def execute(
        self,
        sql: str,
        skip: int = 0,
        on_statement: "Callable[[int, QueryResult | StatementResult], None] | None" = None,
    ) -> list[QueryResult | StatementResult]:
        """Run a script; returns one result per executed statement, in order.

        *skip* drops the first N statements without executing them (resume
        from a checkpoint whose database/platform state already reflects
        them). *on_statement* is called after each executed statement with
        ``(statement_index, result)`` — the hook checkpointing builds on.
        """
        results: list[QueryResult | StatementResult] = []
        for index, statement in enumerate(parse(sql).statements):
            if index < skip:
                continue
            label = describe_statement(statement)
            self.current_statement = label
            try:
                if self.profiler is not None:
                    with self.profiler.statement(index, label) as capture:
                        result = self._execute_statement(statement)
                        capture.finish(result)
                else:
                    result = self._execute_statement(statement)
            finally:
                self.current_statement = None
            results.append(result)
            if on_statement is not None:
                on_statement(index, result)
        return results

    def query(self, sql: str) -> QueryResult:
        """Run a script whose final statement is a SELECT; return its rows."""
        results = self.execute(sql)
        last = results[-1]
        if not isinstance(last, QueryResult):
            raise ExecutionError("last statement did not produce rows")
        return last

    def explain(self, sql: str) -> str:
        """Plan text (and estimated crowd cost) without executing."""
        statements = parse(sql).statements
        chunks = []
        for statement in statements:
            if not isinstance(statement, Select):
                chunks.append(f"-- {type(statement).__name__}: no plan")
                continue
            plan = build_plan(statement, self.database)
            if self.optimize:
                plan = Optimizer(self.database, CostModel(self.redundancy)).optimize(plan)
            cost = estimate_plan_cost(plan, self.database, CostModel(self.redundancy))
            chunks.append(plan.explain() + f"\n-- estimated crowd cost: {cost:.4f}")
        return "\n\n".join(chunks)

    # ------------------------------------------------------------------ #

    def _execute_statement(self, statement: Statement) -> QueryResult | StatementResult:
        if isinstance(statement, CreateTable):
            return self._create(statement)
        if isinstance(statement, DropTable):
            self.database.drop_table(statement.name, if_exists=statement.if_exists)
            return StatementResult(kind="dropped", table=statement.name)
        if isinstance(statement, Insert):
            return self._insert(statement)
        if isinstance(statement, Select):
            return self._select(statement)
        if isinstance(statement, Explain):
            return self._explain(statement)
        if isinstance(statement, Update):
            return self._update(statement)
        if isinstance(statement, Delete):
            return self._delete(statement)
        raise ExecutionError(f"unsupported statement {type(statement).__name__}")

    def _explain(self, statement: Explain) -> QueryResult:
        """EXPLAIN: return the plan text as rows instead of executing."""
        plan = build_plan(statement.select, self.database)
        if self.optimize:
            plan = Optimizer(self.database, CostModel(self.redundancy)).optimize(plan)
        cost = estimate_plan_cost(plan, self.database, CostModel(self.redundancy))
        lines = plan.explain().splitlines() + [f"-- estimated crowd cost: {cost:.4f}"]
        return QueryResult(
            columns=("plan",),
            rows=[{"plan": line} for line in lines],
        )

    def _matching_rowids(self, table_name: str, where) -> list[int]:
        """Rowids of *table_name* whose rows satisfy *where* (crowd-aware)."""
        table = self.database.table(table_name)
        if where is None:
            return table.rowids().tolist()
        if contains_crowd_predicate(where):
            if self.platform is None:
                raise ExecutionError(
                    "statement requires crowd work but the session has no platform"
                )
            executor = Executor(
                self.database,
                self.platform,
                redundancy=self.redundancy,
                inference=self.inference,
                oracle=self.oracle,
            )
            keep = executor.crowd_mask(where, table.to_dicts(), ExecutionStats())
            return list(compress(table.rowids().tolist(), keep))
        try:
            return table.filter_rowids(where).tolist()
        except (ExpressionError, UnknownColumnError):
            # The vector path evaluates both arms of an AND/OR where the row
            # loop short-circuits, and rejects an unknown column even when
            # no row reaches it: let the row loop decide, errors included.
            pass
        return [row.rowid for row in table if where.evaluate(row.as_dict()) is True]

    def _update(self, statement: Update) -> StatementResult:
        table = self.database.table(statement.table)
        # Validate every assignment before touching a row, so a statement
        # that fails leaves the table unchanged.
        assignments = [
            (column, table.validate_update(column, value))
            for column, value in statement.assignments
        ]
        rowids = self._matching_rowids(statement.table, statement.where)
        for rowid in rowids:
            for column, value in assignments:
                table.update_cell(rowid, column, value)
        return StatementResult(
            kind="updated", table=statement.table, row_count=len(rowids)
        )

    def _delete(self, statement: Delete) -> StatementResult:
        table = self.database.table(statement.table)
        rowids = self._matching_rowids(statement.table, statement.where)
        for rowid in rowids:
            table.delete(rowid)
        return StatementResult(
            kind="deleted", table=statement.table, row_count=len(rowids)
        )

    def _create(self, statement: CreateTable) -> StatementResult:
        columns = [
            Column(
                c.name,
                _TYPE_MAP[c.type_name],
                crowd=c.crowd,
                nullable=not c.not_null,
            )
            for c in statement.columns
        ]
        schema = Schema(
            columns,
            primary_key=statement.primary_key,
            crowd_table=statement.crowd_table,
        )
        self.database.create_table(
            statement.name, schema, if_not_exists=statement.if_not_exists
        )
        return StatementResult(kind="created", table=statement.name)

    def _insert(self, statement: Insert) -> StatementResult:
        table = self.database.table(statement.table)
        columns = statement.columns or table.schema.column_names
        for row in statement.rows:
            if len(row) != len(columns):
                raise ExecutionError(
                    f"INSERT row has {len(row)} values for {len(columns)} columns"
                )
        # One bulk insert validates every value and key before storing any,
        # so a statement that fails stores nothing.
        table.insert_columns(
            {name: [row[i] for row in statement.rows] for i, name in enumerate(columns)}
        )
        return StatementResult(
            kind="inserted", table=statement.table, row_count=len(statement.rows)
        )

    def _select(self, statement: Select) -> QueryResult:
        plan = build_plan(statement, self.database)
        if self.optimize:
            plan = Optimizer(self.database, CostModel(self.redundancy)).optimize(plan)
        platform = self.platform
        if platform is None:
            platform = _require_no_crowd(plan)
        executor_cls = (
            StreamingExecutor if self.pipeline and self.platform is not None else Executor
        )
        executor = executor_cls(
            self.database,
            platform,
            redundancy=self.redundancy,
            inference=self.inference,
            oracle=self.oracle,
        )
        return executor.execute(plan)


def _require_no_crowd(plan: Any) -> SimulatedPlatform:
    """Queries without crowd operators may run platform-less."""
    from repro.lang.planner import count_crowd_operators

    if count_crowd_operators(plan) > 0:
        raise ExecutionError(
            "query requires crowd work but the session has no platform"
        )
    # A dummy platform that is never used.
    from repro.workers.pool import WorkerPool

    return SimulatedPlatform(WorkerPool.uniform(1, 1.0, seed=0), seed=0)
