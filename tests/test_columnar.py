"""Columnar substrate tests.

Covers the invariants the columnar rebuild must preserve:

- ``Table.copy()`` keeps rowids and the next-rowid counter (regression for
  the bug where clones renumbered rows, invalidating checkpoints/caches);
- 100k-row CSV and on-disk persistence round-trips with CNULL, NULL,
  unicode, and the documented empty-string→NULL codec lossiness;
- property-style equivalence between the row-at-a-time reference scan and
  the vectorized ``filter_rowids`` path over randomized expression trees,
  and between batched ``rows_at`` and per-row ``row_dict``;
- the CrowdSQL executor's columnar fast paths (machine filter, hash
  join, aggregates, filters the optimizer pushed below a join) against
  the row-path fallback, comparing result rows, execution stats,
  platform spend and raised errors bit-for-bit; the crowd filters over a
  machine prefix run the crowd evaluator's NULL and CROWD_UNKNOWN prefix
  cases under both.
"""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.data.csvio import table_from_csv_string, table_to_csv_string
from repro.data.database import Database
from repro.data.expressions import (
    And,
    ColumnRef,
    Comparison,
    CrowdPredicate,
    InList,
    IsCNull,
    IsNull,
    Like,
    Literal,
    Not,
    Or,
    col,
    lit,
)
from repro.data.persistence import load_database, save_database
from repro.data.schema import CNULL, SchemaBuilder, is_cnull
from repro.data.table import Table, make_table
from repro.errors import CrowdDMError
from repro.lang.ast_nodes import AggregateSpec
from repro.lang.executor import CrowdOracle, Executor
from repro.lang.optimizer import Optimizer
from repro.lang.planner import (
    AggregateNode,
    CrowdFilterNode,
    FilterNode,
    JoinNode,
    LogicalPlan,
    ScanNode,
)
from repro.platform.platform import SimulatedPlatform
from repro.workers.pool import WorkerPool


# --------------------------------------------------------------------- #
# Table.copy() rowid preservation (regression)
# --------------------------------------------------------------------- #


@pytest.fixture
def gapped(people_schema):
    """A table whose rowids are non-contiguous (2 was deleted)."""
    table = make_table(
        "people",
        people_schema,
        rows=[
            {"name": "ann", "age": 30},
            {"name": "bob", "age": 25},
            {"name": "carol", "age": 41, "hometown": "rome"},
        ],
    )
    table.delete(2)
    return table


class TestCopyPreservesRowids:
    def test_rowids_survive_copy(self, gapped):
        clone = gapped.copy()
        assert [r.rowid for r in clone] == [1, 3]
        assert [r.rowid for r in gapped] == [1, 3]

    def test_rows_addressable_by_original_rowid(self, gapped):
        clone = gapped.copy()
        assert clone.row(3)["name"] == "carol"
        with pytest.raises(KeyError):
            clone.row(2)

    def test_next_rowid_counter_survives(self, gapped):
        clone = gapped.copy()
        row = clone.insert({"name": "dave"})
        assert row.rowid == 4  # not 3 — deleted rowids are never reused

    def test_copy_is_independent(self, gapped):
        clone = gapped.copy()
        clone.insert({"name": "dave"})
        clone.delete(1)
        assert len(gapped) == 2
        assert gapped.row(1)["name"] == "ann"

    def test_pk_index_survives(self, gapped):
        clone = gapped.copy()
        assert clone.lookup(name="carol").rowid == 3
        assert clone.lookup(name="bob") is None

    def test_cnull_accounting_survives(self, gapped):
        clone = gapped.copy()
        assert clone.cnull_count() == gapped.cnull_count() == 1
        assert clone.cnull_cells() == gapped.cnull_cells()


# --------------------------------------------------------------------- #
# 100k-row round-trips through the columnar codecs
# --------------------------------------------------------------------- #

N_LARGE = 100_000


def _large_table(name="big"):
    schema = (
        SchemaBuilder()
        .integer("uid", nullable=False)
        .float("score")
        .string("city")
        .crowd_string("label")
        .boolean("active")
        .key("uid")
        .build()
    )
    rng = random.Random(99)
    cities = ("oslo", "rome", "ünïted-çity", "", "east\nwick", 'quo"te', None)
    labels = (CNULL, None, "ok", "späm")
    table = Table(name, schema)
    table.insert_columns(
        {
            "uid": list(range(N_LARGE)),
            "score": [
                None if i % 17 == 0 else rng.uniform(-1e6, 1e6) for i in range(N_LARGE)
            ],
            "city": [cities[i % len(cities)] for i in range(N_LARGE)],
            "label": [labels[i % len(labels)] for i in range(N_LARGE)],
            "active": [None if i % 23 == 0 else i % 2 == 0 for i in range(N_LARGE)],
        }
    )
    return table


def _expect_csv(value):
    """What a cell should be after one trip through the CSV codec."""
    return None if value == "" else value


def _assert_tables_equal(loaded, original, through_csv):
    """Column-level comparison (mask-exact; optional empty→NULL transform)."""
    assert len(loaded) == len(original)
    for name in original.schema.column_names:
        src = original.column_vector(name).to_list()
        if through_csv:
            src = [_expect_csv(v) for v in src]
        got = loaded.column_vector(name).to_list()
        assert len(got) == len(src)
        for index, (g, s) in enumerate(zip(got, src, strict=True)):
            if is_cnull(s):
                assert is_cnull(g), (name, index)
            else:
                assert g == s, (name, index, g, s)


class TestLargeRoundTrips:
    def test_csv_round_trip_100k(self):
        table = _large_table()
        text = table_to_csv_string(table)
        loaded = table_from_csv_string(text, "big", table.schema)
        _assert_tables_equal(loaded, table, through_csv=True)

    def test_csv_empty_string_becomes_null(self):
        """The codec's documented lossiness: '' externalizes as NULL."""
        table = _large_table()
        empties = sum(1 for v in table.column_vector("city").to_list() if v == "")
        assert empties > 0
        loaded = table_from_csv_string(table_to_csv_string(table), "big", table.schema)
        assert sum(1 for v in loaded.column_vector("city").to_list() if v == "") == 0

    def test_persistence_round_trip_100k(self, tmp_path):
        database = Database("huge")
        table = _large_table()
        database.create_table("big", table.schema, rows=[])
        database.table("big").insert_columns(
            {name: table.column_vector(name).to_list() for name in table.schema.column_names}
        )
        save_database(database, tmp_path / "db")
        loaded = load_database(tmp_path / "db")
        _assert_tables_equal(loaded.table("big"), table, through_csv=True)

    def test_popcounts_match_cell_walk(self):
        table = _large_table()
        walked = sum(1 for row in table if row.has_cnull())
        cells = len(table.cnull_cells())
        assert table.cnull_count() == cells
        assert cells == sum(
            1 for row in table for c in table.schema.column_names if is_cnull(row[c])
        )
        assert walked == N_LARGE // 4  # one CNULL label every 4 rows
        crowd_cols = len(table.schema.crowd_columns)
        expected = 1.0 - cells / (len(table) * crowd_cols)
        assert table.completeness() == pytest.approx(expected)


# --------------------------------------------------------------------- #
# Property: vectorized scan ≡ row-at-a-time reference
# --------------------------------------------------------------------- #

_ROW = st.tuples(
    st.one_of(st.none(), st.integers(-5, 5)),  # a: INTEGER
    st.one_of(st.none(), st.sampled_from(["abc", "axc", "zebra", "", "ünï"])),  # s
    st.one_of(st.none(), st.just(CNULL), st.sampled_from(["rome", "oslo"])),  # cs
)
_ROWS = st.lists(_ROW, min_size=0, max_size=30)

_LEAF = st.one_of(
    st.builds(
        lambda op, t: Comparison(op, col("a"), lit(t)),
        st.sampled_from([">", "<", ">=", "<=", "=", "!="]),
        st.integers(-5, 5),
    ),
    st.builds(
        lambda op, v: Comparison(op, col("s"), lit(v)),
        st.sampled_from(["=", "!="]),
        st.sampled_from(["abc", "axc", ""]),
    ),
    st.builds(lambda p: Like(col("s"), p), st.sampled_from(["a%", "%c", "a_c", "%b%"])),
    st.builds(
        lambda vals: InList(col("a"), tuple(vals)),
        st.lists(st.one_of(st.none(), st.integers(-5, 5)), max_size=4),
    ),
    st.sampled_from(
        [IsNull(col("a")), IsNull(col("s")), IsNull(col("cs")), IsCNull(col("cs"))]
    ),
)
_EXPR = st.recursive(
    _LEAF,
    lambda child: st.one_of(
        st.builds(And, child, child),
        st.builds(Or, child, child),
        st.builds(Not, child),
    ),
    max_leaves=8,
)


def _scan_table(rows):
    schema = SchemaBuilder().integer("a").string("s").crowd_string("cs").build()
    return make_table(
        "t", schema, rows=[{"a": a, "s": s, "cs": cs} for a, s, cs in rows]
    )


@given(rows=_ROWS, expr=_EXPR)
@settings(max_examples=80, deadline=None)
def test_filter_rowids_matches_row_reference(rows, expr):
    table = _scan_table(rows)
    reference = [row.rowid for row in table if expr.evaluate(row) is True]
    assert table.filter_rowids(expr).tolist() == reference


@given(rows=_ROWS, expr=_EXPR)
@settings(max_examples=40, deadline=None)
def test_scan_with_expression_matches_reference(rows, expr):
    table = _scan_table(rows)
    reference = [row.rowid for row in table if expr.evaluate(row) is True]
    assert [row.rowid for row in table.scan(expr)] == reference


_CELLS = {
    "i": (None, 0, -7, 2**40, 2**70),  # 2**70 widens the column to object
    "f": (None, 0.5, -0.0, float("nan"), float("inf")),
    "b": (None, True, False),
    "s": (None, "", "abc", "ünï"),
    "cs": (None, CNULL, "rome"),
}


def _rows_at_table(n, seed):
    rng = random.Random(seed)
    schema = (
        SchemaBuilder()
        .integer("i")
        .float("f")
        .boolean("b")
        .string("s")
        .crowd_string("cs")
        .build()
    )
    table = Table("r", schema)
    for _ in range(n):
        table.insert({name: rng.choice(cells) for name, cells in _CELLS.items()})
    return table, rng


@given(
    n=st.integers(0, 200),
    seed=st.integers(0, 2**16),
    delete_share=st.floats(0.0, 1.0),
    picks=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=40),
)
@example(n=200, seed=5, delete_share=0.8, picks=[0.9, 0.0, 0.5, 0.5])
@settings(max_examples=60, deadline=None)
def test_rows_at_matches_row_dict(n, seed, delete_share, picks):
    """Batched rows equal per-row ``row_dict`` (repr for repr, key order
    included) at any positions, duplicates and any order included, after
    deletes and the compaction enough of them trigger."""
    table, rng = _rows_at_table(n, seed)
    for rowid in table.rowids().tolist():
        if rng.random() < delete_share:
            table.delete(rowid)
    if (n, seed) == (200, 5):
        assert table.store._length < n  # the example compacts dead slots away
    store = table.store
    rowids = table.rowids()
    positions = [int(p * len(table)) for p in picks] if len(table) else []
    reference = [store.row_dict(int(rowids[p])) for p in positions]
    assert _canon(store.rows_at(positions)) == _canon(reference)
    assert _canon(table.to_dicts()) == _canon(row.as_dict() for row in table)


# --------------------------------------------------------------------- #
# Executor fast paths vs the row-path fallback
# --------------------------------------------------------------------- #


def _exec_db():
    rng = random.Random(7)
    database = Database("diff")
    s1 = (
        SchemaBuilder()
        .integer("a")
        .float("b")
        .string("s")
        .crowd_string("cs")
        .integer("n")
        .crowd_float("cf")
        .build()
    )
    rows = [
        {
            "a": rng.choice([None, rng.randint(-5, 5)]),
            "b": rng.choice([None, rng.uniform(-2, 2), float("nan"), 1.0]),
            "s": rng.choice([None, "abc", "axc", "zebra", "ünïcode", ""]),
            "cs": rng.choice([CNULL, "oslo", "rome", None]),
            "n": rng.randint(0, 40),
        }
        for _ in range(200)
    ]
    # A grouping key with NULL, CNULL and NaN cells, drawn from its own
    # stream so the other columns keep their values.
    keys = random.Random(8)
    for row in rows:
        row["cf"] = keys.choice([None, CNULL, float("nan"), 0.5, 2.0])
    database.create_table("t1", s1, rows=rows)
    s2 = SchemaBuilder().integer("k").string("tag").build()
    database.create_table(
        "t2",
        s2,
        rows=[
            {
                "k": rng.choice([None, rng.randint(-5, 5)]),
                "tag": rng.choice(["x", "y", "abc", None]),
            }
            for _ in range(100)
        ],
    )
    return database


def _executor(database, fast):
    platform = SimulatedPlatform(WorkerPool.uniform(12, 0.9, seed=1), seed=2)
    oracle = CrowdOracle(filter_fn=lambda value, question: "o" in str(value))
    ex = Executor(database, platform, redundancy=3, oracle=oracle)
    if not fast:
        # Shadow the fast paths so every node takes the row-path fallback:
        # no subtree resolves to column arrays (filters, joins,
        # aggregates), and rows are built one row_dict at a time.
        ex._columnar_rows = lambda node: None
        for table in database:
            store = table.store
            store.rows_at = lambda positions, store=store: [
                store.row_dict(int(rowid)) for rowid in store.rowids()[positions]
            ]
    return ex, platform


def _optimized(node):
    """*node* as the optimizer rewrites it over the differential database."""
    return Optimizer(_exec_db()).optimize(LogicalPlan(node)).root


def _aggregate(child, *specs, group_by=None):
    return AggregateNode(
        child, tuple(AggregateSpec(func, column) for func, column in specs), group_by
    )


_C = ColumnRef
_L = Literal
_CROWD = CrowdPredicate("filter", (_C("cs"),), question="o?")

_PLANS = {
    "machine-compare": FilterNode(ScanNode("t1"), Comparison(">", _C("a"), _L(0))),
    "stacked-filters": FilterNode(
        FilterNode(ScanNode("t1"), Comparison("<", _C("n"), _L(30))),
        Or(Comparison("=", _C("s"), _L("abc")), IsNull(_C("a"))),
    ),
    "like": FilterNode(ScanNode("t1"), Like(_C("s"), "a%c")),
    "inlist-not-cnull": FilterNode(
        ScanNode("t1"), And(InList(_C("a"), (1, 2, None)), Not(IsCNull(_C("cs"))))
    ),
    "float-eq": FilterNode(ScanNode("t1"), Comparison("=", _C("b"), _L(1.0))),
    "crowd-prefix": CrowdFilterNode(
        ScanNode("t1"), And(Comparison(">", _C("n"), _L(20)), _CROWD)
    ),
    "crowd-left-assoc": CrowdFilterNode(
        ScanNode("t1"),
        And(
            And(Comparison(">", _C("n"), _L(25)), Comparison("=", _C("s"), _L("abc"))),
            _CROWD,
        ),
    ),
    "crowd-right-nested": CrowdFilterNode(
        ScanNode("t1"),
        And(Comparison(">", _C("n"), _L(30)), And(IsNull(_C("a")), _CROWD)),
    ),
    "crowd-cu-prefix": CrowdFilterNode(
        ScanNode("t1"), And(Comparison("=", _C("cs"), _L("oslo")), _CROWD)
    ),
    "crowd-null-prefix": CrowdFilterNode(
        ScanNode("t1"), And(Comparison(">", _C("a"), _L(0)), _CROWD)
    ),
    "equi-join-int": JoinNode(
        ScanNode("t1"), ScanNode("t2"), Comparison("=", _C("a"), _C("k"))
    ),
    "equi-join-residual": JoinNode(
        FilterNode(ScanNode("t1"), Comparison(">", _C("n"), _L(10))),
        ScanNode("t2"),
        And(Comparison("=", _C("a"), _C("k")), Comparison("!=", _C("tag"), _L("y"))),
    ),
    "equi-join-string": JoinNode(
        ScanNode("t1"), ScanNode("t2"), Comparison("=", _C("s"), _C("tag"))
    ),
    "equi-join-composite": JoinNode(
        ScanNode("t1"),
        ScanNode("t2"),
        And(Comparison("=", _C("a"), _C("k")), Comparison("=", _C("s"), _C("tag"))),
    ),
    "non-equi-join": JoinNode(
        ScanNode("t1"), ScanNode("t2"), Comparison("<", _C("a"), _C("k"))
    ),
    "cross-dtype-join": JoinNode(
        ScanNode("t1"), ScanNode("t2"), Comparison("=", _C("b"), _C("k"))
    ),
    "agg-group-null-cnull-nan": _aggregate(
        ScanNode("t1"),
        ("COUNT", None), ("COUNT", "b"), ("SUM", "b"), ("AVG", "n"), ("MIN", "s"),
        ("MAX", "a"),
        group_by="cf",
    ),
    "agg-group-filtered": _aggregate(
        FilterNode(ScanNode("t1"), Comparison(">", _C("n"), _L(10))),
        ("COUNT", None), ("SUM", "a"), ("AVG", "b"), ("MAX", "cs"),
        group_by="s",
    ),
    "agg-no-group": _aggregate(
        ScanNode("t1"),
        ("COUNT", None), ("COUNT", "cs"), ("SUM", "b"), ("AVG", "a"), ("MIN", "b"),
        ("MAX", "s"),
    ),
    "agg-sum-string": _aggregate(ScanNode("t1"), ("SUM", "n"), ("SUM", "s"), group_by="a"),
    "agg-over-join": _aggregate(
        JoinNode(ScanNode("t1"), ScanNode("t2"), Comparison("=", _C("a"), _C("k"))),
        ("COUNT", None), ("SUM", "b"),
        group_by="tag",
    ),
}

#: Filters above a machine join, as written; ``_PLANS`` holds them as the
#: optimizer rewrites them (the filter sinks onto one join input).
_PUSHDOWN_RAW = {
    "pushdown-left": FilterNode(
        JoinNode(ScanNode("t1"), ScanNode("t2"), Comparison("=", _C("a"), _C("k"))),
        Comparison(">", _C("n"), _L(10)),
    ),
    "pushdown-each-side-and-both": FilterNode(
        JoinNode(ScanNode("t1"), ScanNode("t2"), Comparison("=", _C("s"), _C("tag"))),
        And(
            And(Comparison("<", _C("n"), _L(30)), Comparison("!=", _C("tag"), _L("y"))),
            Comparison(">=", _C("a"), _C("k")),
        ),
    ),
    "pushdown-below-crowd-filter": CrowdFilterNode(
        JoinNode(ScanNode("t1"), ScanNode("t2"), Comparison("=", _C("a"), _C("k"))),
        And(Comparison(">", _C("n"), _L(5)), _CROWD),
    ),
}
_PLANS.update({name: _optimized(raw) for name, raw in _PUSHDOWN_RAW.items()})


def _canon(rows):
    return [tuple((k, repr(v)) for k, v in row.items()) for row in rows]


def _outcome(executor, platform, plan):
    """Rows, stats and spend of one execution, or the error it raised."""
    try:
        result = executor.execute(plan)
    except CrowdDMError as exc:
        return ("raised", type(exc), str(exc), platform.stats.cost_spent)
    s = result.stats
    return (
        _canon(result.rows),
        (s.crowd_questions, s.crowd_answers, s.crowd_cost),
        platform.stats.cost_spent,
    )


class TestExecutorFastPathsMatchFallback:
    """Fast and fallback executors on identical seeded state must agree on
    rows, execution stats, AND platform spend (same crowd purchases in the
    same order → same RNG stream → same simulated answers), or raise the
    same error."""

    @pytest.mark.parametrize("name", sorted(_PLANS))
    def test_differential(self, name):
        plan = LogicalPlan(_PLANS[name])
        fast = _outcome(*_executor(_exec_db(), fast=True), plan)
        slow = _outcome(*_executor(_exec_db(), fast=False), plan)
        assert fast == slow
        assert (fast[0] == "raised") == (name == "agg-sum-string")

    @pytest.mark.parametrize("name", sorted(_PUSHDOWN_RAW))
    def test_pushdown_matches_unoptimized_plan(self, name):
        """The optimizer moved a filter below the join: the fast path over
        the rewritten plan equals the row path over the plan as written."""
        rewritten = _PLANS[name]
        assert any(
            isinstance(node, JoinNode)
            and any(isinstance(side, FilterNode) for side in node.children())
            for node in rewritten.walk()
        )
        fast = _outcome(*_executor(_exec_db(), fast=True), LogicalPlan(rewritten))
        slow = _outcome(
            *_executor(_exec_db(), fast=False), LogicalPlan(_PUSHDOWN_RAW[name])
        )
        assert fast == slow
