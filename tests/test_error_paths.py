"""Error-path and repr coverage for corners the happy-path tests skip."""

import pytest

from repro.data.database import Database
from repro.data.expressions import (
    Arithmetic,
    Comparison,
    CrowdPredicate,
    col,
    lit,
)
from repro.data.schema import SchemaBuilder
from repro.errors import ExecutionError, ExpressionError, ParseError
from repro.lang.executor import CrowdOracle, Executor
from repro.lang.interpreter import CrowdSQLSession
from repro.lang.parser import parse_one
from repro.lang.planner import CrowdFilterNode, LogicalPlan, ScanNode, build_plan
from repro.platform.platform import SimulatedPlatform
from repro.workers.pool import WorkerPool


class TestExpressionReprs:
    def test_reprs_render(self):
        expr = (col("a") > lit(1)) & ~(col("b") == lit("x"))
        text = repr(expr)
        assert "AND" in text and "NOT" in text and "a" in text

    def test_crowd_predicate_repr(self):
        pred = CrowdPredicate("equal", (col("a"), col("b")))
        assert repr(pred) == "CROWDEQUAL(a, b)"

    def test_arithmetic_repr(self):
        assert repr(Arithmetic("+", col("a"), lit(2))) == "(a + 2)"

    def test_unknown_arithmetic_op(self):
        with pytest.raises(ExpressionError):
            Arithmetic("%", col("a"), lit(2)).evaluate({"a": 1})

    def test_comparison_op_validated_eagerly(self):
        with pytest.raises(ExpressionError):
            Comparison("LIKE", col("a"), lit("x"))


class TestExecutorErrorPaths:
    def _executor(self):
        database = Database()
        schema = SchemaBuilder().string("name").crowd_string("extra").build()
        database.create_table("t", schema, rows=[{"name": "x"}])
        platform = SimulatedPlatform(WorkerPool.uniform(5, 1.0, seed=1), seed=2)
        return database, Executor(database, platform, oracle=CrowdOracle())

    def test_order_by_unknown_column(self):
        database, executor = self._executor()
        session = CrowdSQLSession(database=database)
        with pytest.raises(ExecutionError, match="ORDER BY unknown"):
            session.query("SELECT name FROM t ORDER BY ghost")

    @staticmethod
    def _crowd_filter(predicate):
        return LogicalPlan(CrowdFilterNode(ScanNode("t"), predicate))

    def test_crowdequal_arity_enforced(self):
        database, executor = self._executor()
        pred = CrowdPredicate("equal", (col("name"),))
        with pytest.raises(ExecutionError, match="two operands"):
            executor.execute(self._crowd_filter(pred))
        assert executor.platform.stats.cost_spent == 0

    def test_unknown_crowd_kind(self):
        database, executor = self._executor()
        pred = CrowdPredicate("teleport", (col("name"),))
        with pytest.raises(ExecutionError, match="unknown crowd predicate"):
            executor.execute(self._crowd_filter(pred))
        assert executor.platform.stats.cost_spent == 0

    def test_crowd_predicate_inside_arithmetic_rejected(self):
        database, executor = self._executor()
        expr = Arithmetic("+", CrowdPredicate("equal", (col("name"), lit("x"))), lit(1))
        with pytest.raises(ExecutionError, match="AND/OR/NOT"):
            executor.execute(self._crowd_filter(expr))
        assert executor.platform.stats.cost_spent == 0

    def test_project_unknown_column(self):
        database, _ = self._executor()
        session = CrowdSQLSession(database=database)
        with pytest.raises(Exception):
            session.query("SELECT ghost FROM t")


class TestParserErrorLocations:
    @pytest.mark.parametrize(
        "sql",
        [
            "CREATE TABLE",                       # missing name
            "CREATE TABLE t a STRING)",           # missing paren
            "INSERT INTO t VALUES",               # missing tuple
            "SELECT FROM t",                      # missing select list
            "SELECT * FROM t WHERE",              # missing expr
            "SELECT * FROM t ORDER a",            # missing BY
            "UPDATE t",                           # missing SET
            "DELETE t",                           # missing FROM
            "SELECT COUNT( FROM t",               # bad aggregate
        ],
    )
    def test_malformed_statements_raise_parse_error(self, sql):
        with pytest.raises(ParseError):
            parse_one(sql)

    def test_error_message_includes_got_token(self):
        with pytest.raises(ParseError, match="got"):
            parse_one("SELECT * FROM t LIMIT x")


class TestPlannerEdges:
    def test_join_without_condition_rejected(self):
        # The parser requires ON, so simulate at the AST level.
        from repro.lang.ast_nodes import JoinClause, Select
        from repro.errors import PlanError

        database = Database()
        schema = SchemaBuilder().string("a").build()
        database.create_table("t", schema)
        database.create_table("u", SchemaBuilder().string("b").build())
        select = Select(
            columns=(), table="t",
            joins=(JoinClause(table="u", alias=None, condition=None),),
        )
        with pytest.raises(PlanError, match="ON condition"):
            build_plan(select, database)

    def test_explain_empty_plan_notes(self):
        database = Database()
        database.create_table("t", SchemaBuilder().string("a").build())
        plan = build_plan(parse_one("SELECT a FROM t"), database)
        assert "Scan(t)" in plan.explain()


class TestSessionEdges:
    def test_select_star_includes_all_columns(self):
        session = CrowdSQLSession()
        session.execute("CREATE TABLE t (a STRING, b INTEGER); INSERT INTO t VALUES ('x', 1)")
        result = session.query("SELECT * FROM t")
        assert set(result.columns) == {"a", "b"}

    def test_result_column_accessor(self):
        session = CrowdSQLSession()
        session.execute("CREATE TABLE t (a STRING); INSERT INTO t VALUES ('x'), ('y')")
        result = session.query("SELECT a FROM t")
        assert result.column("a") == ["x", "y"]
        assert len(result) == 2
        assert [row["a"] for row in result] == ["x", "y"]

    def test_if_not_exists_roundtrip(self):
        session = CrowdSQLSession()
        session.execute("CREATE TABLE t (a STRING)")
        session.execute("CREATE TABLE IF NOT EXISTS t (a STRING)")
        assert "t" in session.database

    def test_drop_if_exists(self):
        session = CrowdSQLSession()
        session.execute("DROP TABLE IF EXISTS ghost")


class TestHarnessEdges:
    def test_experiment_std_single_trial_is_zero(self):
        from repro.experiments.harness import run_trials

        result = run_trials("x", lambda seed: {"m": 1.0}, n_trials=1)
        assert result.std("m") == 0.0

    def test_summary_selects_keys(self):
        from repro.experiments.harness import run_trials

        result = run_trials("x", lambda seed: {"a": 1.0, "b": 2.0}, n_trials=2)
        assert result.summary(["b"]) == {"b": 2.0}
