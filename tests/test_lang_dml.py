"""Tests for UPDATE / DELETE statements (including crowd predicates)."""

import pytest

from repro.data.schema import CNULL
from repro.errors import (
    ExecutionError,
    ExpressionError,
    KeyViolationError,
    ParseError,
    TypeMismatchError,
)
from repro.lang.executor import CrowdOracle
from repro.lang.interpreter import CrowdSQLSession
from repro.lang.parser import parse_one
from repro.platform.platform import SimulatedPlatform
from repro.workers.pool import WorkerPool


@pytest.fixture
def session():
    s = CrowdSQLSession()
    s.execute(
        "CREATE TABLE inv (sku STRING NOT NULL, price FLOAT, stock INTEGER,"
        " PRIMARY KEY (sku));"
        "INSERT INTO inv VALUES ('a', 10.0, 5), ('b', 20.0, 0), ('c', 30.0, 2)"
    )
    return s


def _inventory(session):
    return [
        (r["sku"], r["price"], r["stock"]) for r in session.query("SELECT * FROM inv")
    ]


class TestParsing:
    def test_update(self):
        stmt = parse_one("UPDATE t SET a = 1, b = 'x' WHERE c > 2")
        assert stmt.assignments == (("a", 1), ("b", "x"))
        assert stmt.where is not None

    def test_update_without_where(self):
        assert parse_one("UPDATE t SET a = 1").where is None

    def test_update_requires_equals(self):
        with pytest.raises(ParseError):
            parse_one("UPDATE t SET a > 1")

    def test_delete(self):
        stmt = parse_one("DELETE FROM t WHERE a IS NULL")
        assert stmt.table == "t"

    def test_delete_trailing_garbage(self):
        with pytest.raises(ParseError):
            parse_one("DELETE FROM t WHERE a = 1 LIMIT 1")

    def test_update_cnull_literal(self):
        stmt = parse_one("UPDATE t SET v = CNULL")
        assert stmt.assignments[0][1] is CNULL


class TestUpdate:
    def test_updates_matching_rows(self, session):
        result = session.execute("UPDATE inv SET price = 15.0 WHERE stock > 1")[0]
        assert result.kind == "updated" and result.row_count == 2
        prices = {r["sku"]: r["price"] for r in session.query("SELECT * FROM inv")}
        assert prices == {"a": 15.0, "b": 20.0, "c": 15.0}

    def test_update_all_rows(self, session):
        result = session.execute("UPDATE inv SET stock = 9")[0]
        assert result.row_count == 3
        assert all(r["stock"] == 9 for r in session.query("SELECT * FROM inv"))

    def test_update_unknown_column(self, session):
        with pytest.raises(Exception):
            session.execute("UPDATE inv SET ghost = 1")
        # An unknown WHERE column keeps the row loop's error and message.
        with pytest.raises(ExpressionError, match="row has no column 'ghost'"):
            session.execute("UPDATE inv SET stock = 1 WHERE ghost = 1")

    def test_update_pk_rejected(self, session):
        with pytest.raises(KeyViolationError):
            session.execute("UPDATE inv SET sku = 'z'")
        before = _inventory(session)
        with pytest.raises(KeyViolationError):
            session.execute("UPDATE inv SET price = 7.0, sku = 'z'")
        assert _inventory(session) == before  # table unchanged

    def test_update_type_checked(self, session):
        with pytest.raises(Exception):
            session.execute("UPDATE inv SET stock = 'many'")
        before = _inventory(session)
        with pytest.raises(TypeMismatchError):
            session.execute("UPDATE inv SET price = 9.0, stock = 'many'")
        assert _inventory(session) == before  # table unchanged

    def test_update_with_null(self, session):
        session.execute("UPDATE inv SET price = NULL WHERE sku = 'a'")
        rows = session.query("SELECT price FROM inv WHERE sku = 'a'").rows
        assert rows[0]["price"] is None

    def test_update_crowd_column_to_cnull(self):
        s = CrowdSQLSession()
        s.execute(
            "CREATE TABLE t (k STRING, v STRING CROWD);"
            "INSERT INTO t VALUES ('x', 'filled')"
        )
        s.execute("UPDATE t SET v = CNULL")
        assert s.database.table("t").cnull_cells() == [(1, "v")]


class TestDelete:
    def test_deletes_matching(self, session):
        result = session.execute("DELETE FROM inv WHERE stock = 0")[0]
        assert result.kind == "deleted" and result.row_count == 1
        assert len(session.query("SELECT * FROM inv")) == 2

    def test_delete_all(self, session):
        result = session.execute("DELETE FROM inv")[0]
        assert result.row_count == 3
        assert len(session.query("SELECT * FROM inv")) == 0

    def test_delete_none_matching(self, session):
        result = session.execute("DELETE FROM inv WHERE stock > 99")[0]
        assert result.row_count == 0

    def test_delete_unknown_column(self, session):
        with pytest.raises(ExpressionError, match="row has no column 'ghost'"):
            session.execute("DELETE FROM inv WHERE ghost = 1")
        assert len(_inventory(session)) == 3

    def test_short_circuit_matches_row_loop(self, session):
        # Row at a time, AND stops at a False left arm and never compares a
        # string with an integer; the vector path evaluates both arms, so
        # it must hand the decision back to the row loop, not raise.
        result = session.execute("DELETE FROM inv WHERE stock > 99 AND sku > 1")[0]
        assert result.row_count == 0
        with pytest.raises(ExpressionError):
            session.execute("DELETE FROM inv WHERE stock >= 0 AND sku > 1")
        assert len(_inventory(session)) == 3

    def test_pk_reusable_after_delete(self, session):
        session.execute("DELETE FROM inv WHERE sku = 'a'")
        session.execute("INSERT INTO inv VALUES ('a', 1.0, 1)")
        assert len(session.query("SELECT * FROM inv")) == 3


class TestInsertAtomicity:
    def test_duplicate_key_stores_no_row(self, session):
        with pytest.raises(KeyViolationError, match="duplicate primary key"):
            session.execute(
                "INSERT INTO inv VALUES ('d', 1.0, 1), ('e', 2.0, 2), ('d', 3.0, 3)"
            )
        assert [sku for sku, _p, _s in _inventory(session)] == ["a", "b", "c"]
        session.execute("INSERT INTO inv VALUES ('d', 1.0, 1), ('e', 2.0, 2)")
        assert [sku for sku, _p, _s in _inventory(session)] == ["a", "b", "c", "d", "e"]

    def test_ill_typed_later_row_stores_no_row(self, session):
        with pytest.raises(TypeMismatchError):
            session.execute("INSERT INTO inv VALUES ('d', 1.0, 1), ('e', 'cheap', 2)")
        assert len(_inventory(session)) == 3


class TestCrowdDml:
    def _session(self):
        platform = SimulatedPlatform(WorkerPool.uniform(10, 0.97, seed=1), seed=2)
        oracle = CrowdOracle(filter_fn=lambda v, q: str(v).startswith("a"))
        s = CrowdSQLSession(platform=platform, oracle=oracle, redundancy=3)
        s.execute(
            "CREATE TABLE items (label STRING, flag INTEGER);"
            "INSERT INTO items VALUES ('apple', 0), ('avocado', 0), ('pear', 0)"
        )
        return s

    def test_crowd_predicate_in_update(self):
        s = self._session()
        result = s.execute(
            "UPDATE items SET flag = 1 WHERE CROWDFILTER(label, 'starts with a?')"
        )[0]
        assert result.row_count == 2
        flagged = {r["label"] for r in s.query("SELECT label FROM items WHERE flag = 1")}
        assert flagged == {"apple", "avocado"}

    def test_crowd_predicate_in_delete(self):
        s = self._session()
        result = s.execute(
            "DELETE FROM items WHERE CROWDFILTER(label, 'starts with a?')"
        )[0]
        assert result.row_count == 2
        remaining = [r["label"] for r in s.query("SELECT label FROM items")]
        assert remaining == ["pear"]

    def test_crowd_dml_needs_platform(self, session):
        with pytest.raises(ExecutionError, match="no platform"):
            session.execute("DELETE FROM inv WHERE CROWDFILTER(sku, 'q?')")


class TestExplainStatement:
    def test_explain_returns_plan_rows(self, session):
        result = session.query("EXPLAIN SELECT sku FROM inv WHERE price > 5")
        lines = result.column("plan")
        assert any("Scan(inv)" in line for line in lines)
        assert any("estimated crowd cost" in line for line in lines)

    def test_explain_does_not_execute(self, session):
        # EXPLAIN of a crowd query must not spend anything (no platform needed).
        result = session.query(
            "EXPLAIN SELECT sku FROM inv WHERE CROWDFILTER(sku, 'q?')"
        )
        assert any("CrowdFilter" in line for line in result.column("plan"))

    def test_explain_non_select_rejected(self, session):
        with pytest.raises(ParseError, match="SELECT statements only"):
            session.execute("EXPLAIN DELETE FROM inv")
