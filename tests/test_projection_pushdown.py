"""Projection pushdown: a SELECT builds only the columns its nodes read.

Each plan node asks its input for the columns it and its consumers read
(``repro.lang.executor.input_columns``), and the leaves build row dicts of
only those columns (``ColumnStore.rows_at`` / ``row_dict``). Nothing a
statement returns, asks or buys may change: a projected SELECT returns the
rows, row order, stats and spend of the same ``SELECT *`` with its rows
projected afterwards.
"""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.schema import CNULL, SchemaBuilder
from repro.data.table import Table
from repro.errors import CrowdDMError
from repro.lang.executor import CrowdOracle, distinct_key
from repro.lang.interpreter import CrowdSQLSession
from repro.platform.batch import BatchConfig
from repro.platform.platform import SimulatedPlatform
from repro.workers.pool import WorkerPool

# --------------------------------------------------------------------- #
# The leaves: row_dict and rows_at with a column set
# --------------------------------------------------------------------- #


def _cells_table():
    schema = (
        SchemaBuilder()
        .integer("i")
        .string("s")
        .crowd_string("cs")
        .float("f")
        .build()
    )
    table = Table("cells", schema)
    for row in (
        {"i": 1, "s": "a", "cs": "x", "f": 0.5},
        {"i": None, "s": None, "cs": CNULL, "f": -0.0},
        {"i": 3, "s": "ü", "cs": None, "f": None},
    ):
        table.insert(row)
    table.delete(table.rowids().tolist()[0])  # reads go through live slots
    return table


class TestLeavesBuildTheirColumns:
    def test_row_dict_keeps_schema_order(self):
        table = _cells_table()
        rowid = table.rowids().tolist()[0]
        row = table.store.row_dict(rowid, frozenset({"f", "cs", "i"}))
        assert list(row) == ["i", "cs", "f"]
        assert row["i"] is None and row["cs"] is CNULL and repr(row["f"]) == "-0.0"

    def test_rows_at_keeps_schema_order(self):
        table = _cells_table()
        rows = table.store.rows_at(np.array([1, 0]), ("cs", "s"))
        assert [list(row) for row in rows] == [["s", "cs"], ["s", "cs"]]
        assert rows == [{"s": "ü", "cs": None}, {"s": None, "cs": CNULL}]

    def test_every_column_is_the_whole_row(self):
        table = _cells_table()
        store = table.store
        for rowid in table.rowids().tolist():
            assert store.row_dict(rowid, None) == store.row_dict(rowid)
        assert store.rows_at(np.arange(2), None) == store.rows_at(np.arange(2))

    def test_names_the_schema_lacks_are_ignored(self):
        table = _cells_table()
        rowid = table.rowids().tolist()[1]
        assert table.store.row_dict(rowid, {"nope", "s"}) == {"s": "ü"}
        assert table.store.rows_at(np.array([1]), {"nope"}) == [{}]

    def test_no_columns_builds_one_empty_row_per_position(self):
        table = _cells_table()
        assert table.store.rows_at(np.array([0, 1, 1]), ()) == [{}, {}, {}]
        assert table.to_dicts(frozenset()) == [{}, {}]

    def test_rows_at_equals_row_dict_per_row(self):
        table = _cells_table()
        store = table.store
        rowids = table.rowids().tolist()
        for columns in ((), ("i",), ("cs", "f"), ("f", "s", "i", "cs")):
            assert store.rows_at(np.arange(len(rowids)), columns) == [
                store.row_dict(rowid, columns) for rowid in rowids
            ]


# --------------------------------------------------------------------- #
# Statements: a projected SELECT equals SELECT * projected in Python
# --------------------------------------------------------------------- #

MAMMAL = "is it a mammal?"
_MAMMALS = {"cat", "dog", "cat dog"}

A_ROWS = st.lists(
    st.tuples(
        st.sampled_from([None, 0, 1, 2, 3]),  # ak
        st.sampled_from(["cat", "dog", "cat dog", "bee"]),  # an
        st.sampled_from([None, -1.5, 0.0, -0.0, 2.5]),  # av
        st.integers(0, 3),  # aw
    ),
    min_size=2,
    max_size=6,
)
B_ROWS = st.lists(
    st.tuples(
        st.sampled_from([None, 0, 1, 2, 3]),  # bk
        st.sampled_from(["cat", "dog", "owl"]),  # bn
        st.sampled_from([None, 0, 1, 2]),  # bv
    ),
    min_size=1,
    max_size=4,
)
A_COLUMNS = ("ak", "an", "av", "aw")
B_COLUMNS = ("bk", "bn", "bv")

#: FROM clauses, and whether they bring b's columns in.
JOINS = {
    "": False,
    " JOIN b ON ak = bk": True,
    " JOIN b ON ak = bk AND av > bv": True,  # equi-join with a residual
    " JOIN b ON ak < bk": True,  # non-equi: nested loop
    " CROWDJOIN b ON CROWDEQUAL(an, bn)": True,
}


@st.composite
def statements(draw, top_k=False):
    """(projected SELECT, its SELECT *, projected columns, DISTINCT?).

    With *top_k*, the shape a streamed LIMIT compiles: a CROWDFILTER over
    one table under ORDER BY and LIMIT.
    """
    join = "" if top_k else draw(st.sampled_from(sorted(JOINS)))
    available = A_COLUMNS + (B_COLUMNS if JOINS[join] else ())
    machine = ["av > 0", "aw < 2", "ak IS NOT NULL"] + (["bv >= 1"] if JOINS[join] else [])
    conjuncts = draw(st.lists(st.sampled_from(machine), max_size=2, unique=True))
    if top_k or draw(st.booleans()):
        conjuncts.append(f"CROWDFILTER(an, '{MAMMAL}')")
    tail = " WHERE " + " AND ".join(conjuncts) if conjuncts else ""
    order = "order" if top_k else draw(st.sampled_from(["none", "order", "crowdorder"]))
    if order == "order":
        keys = draw(st.lists(st.sampled_from(available), min_size=1, max_size=2, unique=True))
        directions = draw(st.lists(st.sampled_from(["ASC", "DESC"]), min_size=2, max_size=2))
        tail += " ORDER BY " + ", ".join(f"{k} {d}" for k, d in zip(keys, directions))
    elif order == "crowdorder":
        tail += " CROWDORDER BY av"
    limit = draw(st.integers(1, 4) if top_k else st.one_of(st.none(), st.integers(1, 4)))
    distinct = limit is None and draw(st.booleans())
    if limit is not None:
        tail += f" LIMIT {limit}"
    columns = draw(st.lists(st.sampled_from(available), min_size=1, unique=True))
    select = "SELECT DISTINCT " if distinct else "SELECT "
    projected = select + ", ".join(columns) + " FROM a" + join + tail
    return projected, "SELECT * FROM a" + join + tail, columns, distinct


def _session(a_rows, b_rows, pipeline):
    """A fresh session over accuracy-1.0 workers, at one seed."""
    platform = SimulatedPlatform(
        WorkerPool.uniform(6, 1.0, seed=3),
        seed=4,
        batch=BatchConfig(batch_size=4, max_parallel=1, seed=5),
    )
    oracle = CrowdOracle(filter_fn=lambda value, _question: value in _MAMMALS)
    session = CrowdSQLSession(
        platform=platform, oracle=oracle, redundancy=3, pipeline=pipeline
    )
    session.execute(
        "CREATE TABLE a (ak INTEGER, an STRING, av FLOAT, aw INTEGER);"
        "CREATE TABLE b (bk INTEGER, bn STRING, bv INTEGER)"
    )
    for ak, an, av, aw in a_rows:
        session.database.table("a").insert({"ak": ak, "an": an, "av": av, "aw": aw})
    for bk, bn, bv in b_rows:
        session.database.table("b").insert({"bk": bk, "bn": bn, "bv": bv})
    return session


def _canon(rows):
    return [tuple((k, repr(v)) for k, v in row.items()) for row in rows]


def _outcome(session, sql, shape=lambda rows: rows):
    """Rows (shaped), stats and purchases of one statement, or its error."""
    platform = session.platform
    try:
        result = session.query(sql)
    except CrowdDMError as exc:
        outcome = ("raised", type(exc), str(exc))
    else:
        outcome = (_canon(shape(result.rows)), dataclasses.astuple(result.stats))
    asked = [(platform.task(a.task_id).question, a.value) for a in platform.answers]
    return outcome, asked, platform.stats.cost_spent, platform.stats.tasks_published


def _check(a_rows, b_rows, statement, pipeline):
    projected, star, columns, distinct = statement

    def project(rows):
        rows = [{c: row[c] for c in columns} for row in rows]
        if not distinct:
            return rows
        seen, unique = set(), []
        for row in rows:
            key = distinct_key(row, columns)
            if key not in seen:
                seen.add(key)
                unique.append(row)
        return unique

    got = _outcome(_session(a_rows, b_rows, pipeline), projected)
    want = _outcome(_session(a_rows, b_rows, pipeline), star, project)
    assert got == want


@given(a_rows=A_ROWS, b_rows=B_ROWS, statement=statements(), pipeline=st.booleans())
@settings(max_examples=150, deadline=None)
def test_projected_select_equals_select_star_projected(a_rows, b_rows, statement, pipeline):
    _check(a_rows, b_rows, statement, pipeline)


@given(a_rows=A_ROWS, statement=statements(top_k=True))
@settings(max_examples=60, deadline=None)
def test_streamed_top_k_equals_select_star_projected(a_rows, statement):
    _check(a_rows, [], statement, pipeline=True)
