"""Machine GROUP BY and equi-joins against per-row references.

``Executor._run_aggregate`` groups in one coded pass (``np.unique`` for a
clean ``int64`` key, first-seen ``dict.fromkeys`` coding otherwise) and
reduces contiguous slices; ``tests/aggregate_oracle.py`` keeps the per-row
bucket loop it replaced. The hypothesis tests below generate tables whose
INTEGER (with >64-bit values), FLOAT (NaN, -0.0), STRING ('' and non-ASCII)
and BOOLEAN columns hold NULL and CNULL cells, and compare the two over a
scan, a filtered scan and a join (the row path): rows by ``repr``, errors by
type and text. A seeded 600-row table checks that each group keeps row
order (a float sum that depends on it, -0.0/0.0 ties in MIN and MAX), and
one case pins which error a GROUP BY raises first. The machine hash joins
(one STRING key, cross-type keys, composite keys) are compared with a
nested loop over the same rows.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aggregate_oracle import reference_aggregate
from repro.data.database import Database
from repro.data.expressions import And, ColumnRef, Comparison, Literal
from repro.data.schema import CNULL, SchemaBuilder
from repro.errors import CrowdDMError, ExecutionError
from repro.lang.ast_nodes import AggregateSpec
from repro.lang.executor import Executor
from repro.lang.interpreter import CrowdSQLSession
from repro.lang.planner import AggregateNode, FilterNode, JoinNode, LogicalPlan, ScanNode

_BIG = [2**70, -(2**70)]  # widen an INTEGER column to object dtype
_POOLS = {
    "i": [0, 1, -1, 7, -(2**63)],
    "f": [0.5, -0.0, 0.0, math.nan, 1.0, 7.0, 2.5, math.inf, float(2**70)],
    "s": ["", "a", "b", "ünï", "Ω"],
    "b": [True, False],
}


def _schema(prefix):
    return (
        SchemaBuilder()
        .integer(f"{prefix}k", nullable=False)
        .crowd_integer(f"{prefix}i")
        .crowd_float(f"{prefix}f")
        .crowd_string(f"{prefix}s")
        .crowd_boolean(f"{prefix}b")
        .build()
    )


@st.composite
def _tables(draw):
    """Columns k, i, f, s, b of one table; each of i/f/s/b may hold NULL and CNULL."""
    n = draw(st.integers(0, 12))
    columns = {"k": draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))}
    for name, pool in _POOLS.items():
        pool = pool + _BIG if name == "i" and draw(st.booleans()) else pool
        if not draw(st.booleans()):  # a column with no NULL or CNULL keeps int64
            pool = pool + [None, CNULL]
        columns[name] = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    return columns


def _database(t, u):
    database = Database("oracle")
    for name, prefix, columns in (("t", "", t), ("u", "u", u)):
        rows = [
            {f"{prefix}{c}": cells[r] for c, cells in columns.items()}
            for r in range(len(columns["k"]))
        ]
        database.create_table(name, _schema(prefix), rows=rows)
    return database


_C = ColumnRef
_CHILDREN = {
    "scan": ScanNode("t"),
    "filtered": FilterNode(ScanNode("t"), Comparison("<", _C("k"), Literal(3))),
    "join": JoinNode(ScanNode("t"), ScanNode("u"), Comparison("=", _C("k"), _C("uk"))),
}
_SPECS = [("COUNT", None)] + [
    (func, column)
    for func in ("COUNT", "SUM", "AVG", "MIN", "MAX")
    for column in ("i", "f", "s", "b")
]


def _canon(rows):
    return [tuple((k, repr(v)) for k, v in row.items()) for row in rows]


def _outcome(run):
    try:
        return _canon(run())
    except CrowdDMError as exc:
        return ("raised", type(exc), str(exc))


def _check_against_oracle(t, u, child, specs, group_by):
    database = _database(t, u)
    executor = Executor(database, None)
    node = AggregateNode(
        _CHILDREN[child], tuple(AggregateSpec(f, c) for f, c in specs), group_by
    )
    got = _outcome(lambda: executor.execute(LogicalPlan(node)).rows)
    rows = executor.execute(LogicalPlan(_CHILDREN[child])).rows
    assert got == _outcome(lambda: reference_aggregate(node, rows))


@given(
    t=_tables(),
    u=_tables(),
    child=st.sampled_from(sorted(_CHILDREN)),
    specs=st.lists(st.sampled_from(_SPECS), min_size=1, max_size=4, unique=True),
    group_by=st.sampled_from([None, "k", "i", "f", "s", "b"]),
)
@settings(max_examples=200, deadline=None)
def test_grouping_matches_the_per_row_oracle(t, u, child, specs, group_by):
    _check_against_oracle(t, u, child, specs, group_by)


@given(
    t=_tables(),
    u=_tables(),
    child=st.sampled_from(sorted(_CHILDREN)),
    group_by=st.sampled_from(["k", "i", "s"]),
)
@settings(max_examples=80, deadline=None)
def test_count_star_only_matches_the_per_row_oracle(t, u, child, group_by):
    """COUNT(*) alone: the int64 coder (``k``, a clean ``i``) and the dict coder."""
    _check_against_oracle(t, u, child, [("COUNT", None)], group_by)


@pytest.mark.parametrize("group_by", ["g", "k"])
@pytest.mark.parametrize("child", ["scan", "join"])
def test_each_group_keeps_row_order(group_by, child):
    """A stable sort keeps each group's rows in row order, so SUM adds the
    same floats in the same order and a -0.0/0.0 tie in MIN or MAX goes to
    the first of the two, as in a per-group loop."""
    rng = random.Random(5)
    n = 600
    schema = SchemaBuilder().string("g").integer("k").float("x").float("z").build()
    database = Database("order")
    database.create_table(
        "t",
        schema,
        rows=[
            {
                "g": rng.choice("abc"),
                "k": rng.randrange(3),
                "x": rng.choice([1e16, -1e16, 1.0, 0.5, 3.0]),
                "z": rng.choice([0.0, -0.0]),
            }
            for _ in range(n)
        ],
    )
    database.create_table(
        "u", SchemaBuilder().integer("uk").build(), rows=[{"uk": k} for k in range(3)]
    )
    specs = tuple(AggregateSpec(f, c) for f, c in (("SUM", "x"), ("MIN", "z"), ("MAX", "z")))
    source = {
        "scan": ScanNode("t"),
        "join": JoinNode(ScanNode("t"), ScanNode("u"), Comparison("=", _C("k"), _C("uk"))),
    }[child]
    node = AggregateNode(source, specs, group_by)
    executor = Executor(database, None)
    rows = executor.execute(LogicalPlan(source)).rows
    assert _canon(executor.execute(LogicalPlan(node)).rows) == _canon(
        reference_aggregate(node, rows)
    )


def test_the_first_error_is_the_first_groups():
    """Groups reduce in ``repr`` order: group 'a' fails on SUM(s2) before
    group 'b' would fail on SUM(s1)."""
    session = CrowdSQLSession()
    session.execute(
        "CREATE TABLE t (g STRING, s1 STRING, s2 STRING);"
        "INSERT INTO t VALUES ('b', 'x', NULL), ('a', NULL, 'y')"
    )
    with pytest.raises(ExecutionError, match=r"^SUM requires numeric values in 's2'$"):
        session.query("SELECT g, SUM(s1), SUM(s2) FROM t GROUP BY g")


_JOINS = {
    "one-string-key": Comparison("=", _C("s"), _C("us")),
    "int-float": Comparison("=", _C("i"), _C("uf")),
    "bool-int": Comparison("=", _C("b"), _C("ui")),
    "int-int": Comparison("=", _C("i"), _C("ui")),
    "composite": And(Comparison("=", _C("i"), _C("ui")), Comparison("=", _C("s"), _C("us"))),
}


@given(
    t=_tables(),
    u=_tables(),
    name=st.sampled_from(sorted(_JOINS)),
    filtered=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_equi_joins_match_a_nested_loop(t, u, name, filtered):
    executor = Executor(_database(t, u), None)
    left = _CHILDREN["filtered" if filtered else "scan"]
    condition = _JOINS[name]
    got = executor.execute(LogicalPlan(JoinNode(left, ScanNode("u"), condition))).rows
    lrows = executor.execute(LogicalPlan(left)).rows
    rrows = executor.execute(LogicalPlan(ScanNode("u"))).rows
    expected = [
        merged
        for lrow in lrows
        for rrow in rrows
        if condition.evaluate(merged := {**lrow, **rrow}) is True
    ]
    assert _canon(got) == _canon(expected)
