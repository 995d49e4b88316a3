"""Property-based correctness tests: the CrowdSQL executor vs a Python
reference implementation on randomized tables and predicates, its crowd
operators vs a per-row purchase loop, and its AND/OR/NOT crowd conditions
vs a per-row three-valued reference."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cost.similarity import jaccard_tokens
from repro.data.expressions import And, CrowdPredicate, Not, Or
from repro.lang.executor import CrowdOracle
from repro.lang.interpreter import CrowdSQLSession
from repro.lang.optimizer import CostModel, Optimizer
from repro.lang.parser import parse_one
from repro.lang.planner import (
    CrowdFilterNode,
    FilterNode,
    ScanNode,
    build_plan,
    crowd_predicates_of,
)
from repro.platform.batch import BatchConfig
from repro.platform.cache import AnswerCache
from repro.platform.platform import SimulatedPlatform
from repro.platform.task import Task, TaskType
from repro.quality.truth import MajorityVote
from repro.workers.pool import WorkerPool

ROWS = st.lists(
    st.tuples(
        st.text(alphabet="abc", min_size=1, max_size=3),   # k
        st.integers(-20, 20),                              # v
        st.one_of(st.none(), st.integers(-20, 20)),        # w (nullable)
    ),
    min_size=0,
    max_size=25,
)

OPS = {
    ">": lambda a, b: a > b,
    "<": lambda a, b: a < b,
    ">=": lambda a, b: a >= b,
    "<=": lambda a, b: a <= b,
    "=": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
}


def _session_with(rows):
    session = CrowdSQLSession()
    session.execute("CREATE TABLE t (k STRING, v INTEGER, w INTEGER)")
    table = session.database.table("t")
    for k, v, w in rows:
        table.insert({"k": k, "v": v, "w": w})
    return session


@given(rows=ROWS, op=st.sampled_from(sorted(OPS)), threshold=st.integers(-20, 20))
@settings(max_examples=60, deadline=None)
def test_where_matches_python_reference(rows, op, threshold):
    session = _session_with(rows)
    result = session.query(f"SELECT k, v FROM t WHERE v {op} {threshold} ORDER BY v")
    expected = sorted(
        ((k, v) for k, v, _w in rows if OPS[op](v, threshold)),
        key=lambda pair: pair[1],
    )
    got = [(r["k"], r["v"]) for r in result.rows]
    # ORDER BY v is stable only up to ties on v; compare multisets and order of v.
    assert sorted(got) == sorted(expected)
    assert [v for _k, v in got] == sorted(v for _k, v in expected)


@given(rows=ROWS, threshold=st.integers(-20, 20))
@settings(max_examples=60, deadline=None)
def test_null_semantics_match_sql(rows, threshold):
    """Rows with NULL w never pass w-comparisons; IS NULL catches them."""
    session = _session_with(rows)
    passed = session.query(f"SELECT k FROM t WHERE w > {threshold}")
    nulls = session.query("SELECT k FROM t WHERE w IS NULL")
    expected_passed = [k for k, _v, w in rows if w is not None and w > threshold]
    expected_nulls = [k for k, _v, w in rows if w is None]
    assert sorted(r["k"] for r in passed.rows) == sorted(expected_passed)
    assert sorted(r["k"] for r in nulls.rows) == sorted(expected_nulls)


@given(rows=ROWS)
@settings(max_examples=60, deadline=None)
def test_aggregates_match_python_reference(rows):
    session = _session_with(rows)
    result = session.query("SELECT COUNT(*), SUM(v), MIN(v), MAX(v), AVG(w) FROM t")
    row = result.rows[0]
    assert row["count"] == len(rows)
    if rows:
        vs = [v for _k, v, _w in rows]
        assert row["sum_v"] == sum(vs)
        assert row["min_v"] == min(vs)
        assert row["max_v"] == max(vs)
    else:
        assert row["sum_v"] is None
    ws = [w for _k, _v, w in rows if w is not None]
    if ws:
        assert row["avg_w"] == pytest.approx(sum(ws) / len(ws))
    else:
        assert row["avg_w"] is None


@given(rows=ROWS)
@settings(max_examples=60, deadline=None)
def test_group_by_matches_python_reference(rows):
    session = _session_with(rows)
    result = session.query("SELECT k, COUNT(*), SUM(v) FROM t GROUP BY k")
    expected: dict[str, tuple[int, int]] = {}
    for k, v, _w in rows:
        count, total = expected.get(k, (0, 0))
        expected[k] = (count + 1, total + v)
    got = {r["k"]: (r["count"], r["sum_v"]) for r in result.rows}
    assert got == expected
    # COUNT(*) alone only counts keys; the groups are the same.
    counted = session.query("SELECT k, COUNT(*) FROM t GROUP BY k").rows
    assert counted == [{"k": r["k"], "count": r["count"]} for r in result.rows]


@given(rows=ROWS, limit=st.integers(1, 30))
@settings(max_examples=40, deadline=None)
def test_limit_and_distinct(rows, limit):
    session = _session_with(rows)
    distinct = session.query("SELECT DISTINCT k FROM t")
    assert sorted(r["k"] for r in distinct.rows) == sorted({k for k, _v, _w in rows})
    limited = session.query(f"SELECT k FROM t LIMIT {limit}")
    assert len(limited.rows) == min(limit, len(rows))


@given(rows=ROWS, lo=st.integers(-20, 0), hi=st.integers(0, 20))
@settings(max_examples=40, deadline=None)
def test_conjunction_matches_reference(rows, lo, hi):
    session = _session_with(rows)
    result = session.query(f"SELECT k FROM t WHERE v >= {lo} AND v <= {hi}")
    expected = [k for k, v, _w in rows if lo <= v <= hi]
    assert sorted(r["k"] for r in result.rows) == sorted(expected)


@given(rows=ROWS, values=st.lists(st.integers(-20, 20), min_size=1, max_size=4))
@settings(max_examples=40, deadline=None)
def test_in_list_matches_reference(rows, values):
    session = _session_with(rows)
    literals = ", ".join(str(v) for v in values)
    result = session.query(f"SELECT k FROM t WHERE v IN ({literals})")
    expected = [k for k, v, _w in rows if v in values]
    assert sorted(r["k"] for r in result.rows) == sorted(expected)


@given(rows=ROWS, threshold=st.integers(-20, 20), new_value=st.integers(-5, 5))
@settings(max_examples=40, deadline=None)
def test_update_matches_python_reference(rows, threshold, new_value):
    session = _session_with(rows)
    session.execute(f"UPDATE t SET w = {new_value} WHERE v > {threshold}")
    result = session.query("SELECT k, v, w FROM t")
    expected = [
        (k, v, new_value if v > threshold else w) for k, v, w in rows
    ]
    got = [(r["k"], r["v"], r["w"]) for r in result.rows]
    assert sorted(got, key=repr) == sorted(expected, key=repr)


@given(rows=ROWS, threshold=st.integers(-20, 20))
@settings(max_examples=40, deadline=None)
def test_delete_matches_python_reference(rows, threshold):
    session = _session_with(rows)
    session.execute(f"DELETE FROM t WHERE v <= {threshold}")
    remaining = session.query("SELECT k, v FROM t")
    expected = [(k, v) for k, v, _w in rows if not v <= threshold]
    got = [(r["k"], r["v"]) for r in remaining.rows]
    assert sorted(got, key=repr) == sorted(expected, key=repr)


@given(rows=ROWS)
@settings(max_examples=40, deadline=None)
def test_multikey_order_matches_python_reference(rows):
    session = _session_with(rows)
    result = session.query("SELECT k, v FROM t ORDER BY k ASC, v DESC")
    got = [(r["k"], r["v"]) for r in result.rows]
    expected = sorted(((k, v) for k, v, _w in rows), key=lambda p: (p[0], -p[1]))
    assert got == expected


FLOAT_KEYED = st.lists(
    st.tuples(
        st.sampled_from([float("nan"), None, -0.5, 0.0, 2.5]),  # g (FLOAT)
        st.integers(-5, 5),                                    # v
    ),
    max_size=20,
)


@given(rows=FLOAT_KEYED)
@example(rows=[(float("nan"), 1), (float("nan"), 2)])
@settings(max_examples=40, deadline=None)
def test_nan_keys_group_and_dedupe_as_one_value(rows):
    """GROUP BY and DISTINCT put every NaN key in one group, like NULL."""
    session = CrowdSQLSession()
    session.execute("CREATE TABLE f (g FLOAT, v INTEGER)")
    table = session.database.table("f")
    for g, v in rows:
        table.insert({"g": g, "v": v})
    expected: dict[str, tuple[int, int]] = {}
    for g, v in rows:
        count, total = expected.get(repr(g), (0, 0))
        expected[repr(g)] = (count + 1, total + v)
    grouped = session.query("SELECT g, COUNT(*), SUM(v) FROM f GROUP BY g").rows
    assert [repr(r["g"]) for r in grouped] == sorted(expected)
    assert {repr(r["g"]): (r["count"], r["sum_v"]) for r in grouped} == expected
    counted = session.query("SELECT g, COUNT(*) FROM f GROUP BY g").rows
    assert [(repr(r["g"]), r["count"]) for r in counted] == [
        (repr(r["g"]), r["count"]) for r in grouped
    ]
    distinct = session.query("SELECT DISTINCT g FROM f").rows
    assert [repr(r["g"]) for r in distinct] == list(dict.fromkeys(repr(g) for g, _v in rows))


@pytest.mark.parametrize(
    "keys", [[-0.0, 0.0, 1.5, -0.0], [0.0, -0.0], [float("nan"), None, float("nan"), 0.0]]
)
def test_count_only_group_by_keeps_each_groups_first_key(keys):
    """GROUP BY with only COUNT(*) counts keys instead of listing rows, and
    keeps the same groups, in the same order, under each group's first key:
    -0.0 and 0.0 share a group, every NaN shares one."""
    session = CrowdSQLSession()
    session.execute("CREATE TABLE f (g FLOAT, v INTEGER)")
    table = session.database.table("f")
    for v, g in enumerate(keys):
        table.insert({"g": g, "v": v})
    listed = session.query("SELECT g, COUNT(*), SUM(v) FROM f GROUP BY g").rows
    counted = session.query("SELECT g, COUNT(*) FROM f GROUP BY g").rows
    assert [(repr(r["g"]), r["count"]) for r in counted] == [
        (repr(r["g"]), r["count"]) for r in listed
    ]


SIDE = st.lists(
    st.tuples(
        st.text(alphabet="ab", min_size=1, max_size=2),  # name
        st.integers(-3, 3),                              # join key
        st.one_of(st.none(), st.integers(-5, 5)),        # nullable value
    ),
    max_size=12,
)


@given(left=SIDE, right=SIDE, lo=st.integers(-5, 5), hi=st.integers(-5, 5))
@settings(max_examples=40, deadline=None)
def test_join_where_matches_python_reference(left, right, lo, hi):
    """WHERE conjuncts on the left input, the right input and both, above a
    hash join the optimizer rewrites: rows and their order match a nested
    loop that filters the joined pairs."""
    session = CrowdSQLSession()
    session.execute(
        "CREATE TABLE l (k STRING, v INTEGER, w INTEGER);"
        "CREATE TABLE r (j STRING, x INTEGER, y INTEGER)"
    )
    for name, rows, cols in (("l", left, "kvw"), ("r", right, "jxy")):
        table = session.database.table(name)
        for row in rows:
            table.insert(dict(zip(cols, row, strict=True)))
    result = session.query(
        f"SELECT k, w, j, y FROM l JOIN r ON v = x WHERE w > {lo} AND y < {hi} AND w <= y"
    )
    expected = [
        (k, w, j, y)
        for k, v, w in left
        for j, x, y in right
        if v == x and w is not None and y is not None and w > lo and y < hi and w <= y
    ]
    assert [(r["k"], r["w"], r["j"], r["y"]) for r in result.rows] == expected


# ---------------------------------------------------------------------- #
# Crowd operators vs a per-row purchase loop
# ---------------------------------------------------------------------- #

CROWD_ROWS = st.lists(
    st.tuples(
        st.sampled_from(["ant", "bee", "cat", "cat dog", "dog"]),  # k (repeats)
        st.one_of(st.none(), st.integers(-2, 2)),                  # w (nullable)
    ),
    max_size=10,
)
LABELS = st.lists(st.sampled_from(["ant", "cat", "dog cat", "eel"]), max_size=4)
MAMMAL = "is it a mammal?"
PRUNE = 0.3


def _is_mammal(value, _question):
    return value in ("cat", "cat dog", "dog")


def _crowd_platform(lanes):
    pool = WorkerPool.heterogeneous(8, accuracy_low=0.6, accuracy_high=0.95, seed=3)
    platform = SimulatedPlatform(
        pool, seed=4, batch=BatchConfig(batch_size=4, max_parallel=lanes, seed=5)
    )
    platform.attach_cache(AnswerCache())
    return platform


def _per_row_reference(platform, rows, labels, optimize):
    """The three statements as plain loops over rows in order: each new
    question is one ``platform.collect([task])`` and a memo answers repeats."""

    def ask(memo, question, truth):
        if question not in memo:
            task = Task(
                TaskType.SINGLE_CHOICE,
                question=question,
                options=("yes", "no"),
                truth="yes" if truth else "no",
            )
            answers = platform.collect([task], redundancy=3)[task.task_id]
            memo[question] = MajorityVote().infer({task.task_id: answers}).truths[
                task.task_id
            ] == "yes"
        return memo[question]

    memo = {}
    filtered = []
    for k, w in rows:
        # The optimizer runs `w > 0` as a machine filter first, dropping NULL
        # rows; unoptimized, a NULL prefix still asks but never keeps the row.
        if (w is None and optimize) or (w is not None and w <= 0):
            continue
        if ask(memo, f"{MAMMAL} — value: {k}", _is_mammal(k, MAMMAL)) and w is not None:
            filtered.append((k, w))
    memo = {}
    joined = []
    for k, _w in rows:
        for label in labels:
            question = f"Do these refer to the same thing? A: {k} | B: {label}"
            if jaccard_tokens(k, label) < PRUNE:
                memo.setdefault(question, False)
            if ask(memo, question, sorted(k.split()) == sorted(label.split())):
                joined.append((k, label))
    memo = {}
    remaining = [
        (k, w)
        for k, w in rows
        if not ask(memo, f"{MAMMAL} — value: {k}", _is_mammal(k, MAMMAL))
    ]
    return filtered, joined, remaining


def _run_statements(platform, rows, labels, optimize, pipeline):
    session = CrowdSQLSession(
        platform=platform,
        oracle=CrowdOracle(filter_fn=_is_mammal, equal_similarity_prune=PRUNE),
        redundancy=3,
        optimize=optimize,
        pipeline=pipeline,
    )
    session.execute("CREATE TABLE t (k STRING, w INTEGER); CREATE TABLE l (label STRING)")
    for k, w in rows:
        session.database.table("t").insert({"k": k, "w": w})
    for label in labels:
        session.database.table("l").insert({"label": label})
    filtered = session.query(f"SELECT k, w FROM t WHERE w > 0 AND CROWDFILTER(k, '{MAMMAL}')")
    joined = session.query("SELECT k, label FROM t CROWDJOIN l ON CROWDEQUAL(k, label)")
    session.execute(f"DELETE FROM t WHERE CROWDFILTER(k, '{MAMMAL}')")
    remaining = session.query("SELECT k, w FROM t")
    return (
        [(r["k"], r["w"]) for r in filtered.rows],
        [(r["k"], r["label"]) for r in joined.rows],
        [(r["k"], r["w"]) for r in remaining.rows],
    )


def _purchases(platform):
    """Answer log, spend and cache contents, with workers as pool indexes."""
    index = {worker.worker_id: i for i, worker in enumerate(platform.pool.workers)}
    return (
        [(index[a.worker_id], a.value) for a in platform.answers],
        platform.stats.cost_spent,
        {
            entry["signature"]: [(index[a["worker_id"]], a["value"]) for a in entry["answers"]]
            for entry in platform.cache.export_entries()
        },
    )


@pytest.mark.parametrize("lanes", [1, 2, 8])
@given(rows=CROWD_ROWS, labels=LABELS, optimize=st.booleans(), pipeline=st.booleans())
@settings(max_examples=25, deadline=None)
def test_crowd_operators_buy_what_a_per_row_loop_buys(lanes, rows, labels, optimize, pipeline):
    """One collect per crowd operator buys the answers, spend and cache
    entries of one collect per row, and returns the same rows."""
    platform = _crowd_platform(lanes)
    got = _run_statements(platform, rows, labels, optimize, pipeline)
    reference = _crowd_platform(lanes)
    expected = _per_row_reference(reference, rows, labels, optimize)
    assert got == expected
    assert _purchases(platform) == _purchases(reference)
    if lanes == 1:
        assert math.isclose(
            platform.scheduler.simulated_clock,
            reference.scheduler.simulated_clock,
            rel_tol=1e-9,
        )


# ---------------------------------------------------------------------- #
# Crowd conditions vs a per-row three-valued reference
# ---------------------------------------------------------------------- #

FLIES = "does it fly?"
TRUTHS = {MAMMAL: lambda value: _is_mammal(value, MAMMAL), FLIES: lambda value: value == "bee"}
CONDITION_LEAVES = st.one_of(
    st.just(f"CROWDFILTER(k, '{MAMMAL}')"),
    st.just(f"CROWDFILTER(k, '{FLIES}')"),
    st.just("CROWDEQUAL(k, 'cat')"),
    st.builds("w {} {}".format, st.sampled_from(["<", "=", ">"]), st.integers(-2, 2)),
)


def _conditions(depth):
    """CrowdSQL conditions of depth <= *depth* over the leaves above."""
    if depth == 0:
        return CONDITION_LEAVES
    inner = _conditions(depth - 1)
    return st.one_of(
        CONDITION_LEAVES,
        inner.map("(NOT {})".format),
        st.builds("({} {} {})".format, inner, st.sampled_from(["AND", "OR"]), inner),
    )


def _reference_value(expr, row, asked):
    """*expr* on one row in SQL's three-valued logic, asking the crowd the
    way a per-row short circuit does and recording every question asked."""
    if isinstance(expr, CrowdPredicate):
        k = row["k"]
        if expr.kind == "equal":
            asked.add(f"Do these refer to the same thing? A: {k} | B: cat")
            return k == "cat"
        asked.add(f"{expr.question} — value: {k}")
        return TRUTHS[expr.question](k)
    if isinstance(expr, Not):
        value = _reference_value(expr.operand, row, asked)
        return None if value is None else not value
    if isinstance(expr, And):
        left = _reference_value(expr.left, row, asked)
        if left is False:
            return False
        right = _reference_value(expr.right, row, asked)
        if right is False:
            return False
        return None if left is None or right is None else True
    if isinstance(expr, Or):
        left = _reference_value(expr.left, row, asked)
        if left is True:
            return True
        right = _reference_value(expr.right, row, asked)
        if right is True:
            return True
        return None if left is None or right is None else False
    w = row["w"]
    return None if w is None else OPS[expr.op](w, expr.right.evaluate(row))


def _filter_chain(plan):
    """The WHERE filters of *plan* in the order its rows pass them."""
    chain = []
    node = plan.root
    while not isinstance(node, ScanNode):
        if isinstance(node, (FilterNode, CrowdFilterNode)):
            chain.append(node.predicate)
        (node,) = node.children()
    return chain[::-1]


def _perfect_platform(lanes):
    """Accuracy-1.0 workers, and a count of the scheduler's runs."""
    platform = SimulatedPlatform(
        WorkerPool.uniform(8, 1.0, seed=3),
        seed=4,
        batch=BatchConfig(batch_size=4, max_parallel=lanes, seed=5),
    )
    runs = []
    run = platform.scheduler.run

    def counted(*args, **kwargs):
        runs.append(len(args[0]))
        return run(*args, **kwargs)

    platform.scheduler.run = counted
    return platform, runs


def _condition_session(platform, rows, optimize):
    session = CrowdSQLSession(
        platform=platform,
        oracle=CrowdOracle(filter_fn=lambda value, question: TRUTHS[question](value)),
        redundancy=3,
        optimize=optimize,
    )
    session.execute("CREATE TABLE t (k STRING, w INTEGER)")
    for k, w in rows:
        session.database.table("t").insert({"k": k, "w": w})
    return session


def _published(platform):
    return {platform.task(answer.task_id).question for answer in platform.answers}


@pytest.mark.parametrize("lanes", [1, 8])
@given(rows=CROWD_ROWS, condition=_conditions(3), optimize=st.booleans())
@settings(max_examples=40, deadline=None)
def test_crowd_conditions_match_a_per_row_reference(lanes, rows, condition, optimize):
    """AND/OR/NOT crowd conditions buy each crowd predicate in at most one
    scheduler run, ask exactly the questions a per-row short circuit asks,
    and return its rows, in SELECT and in DELETE."""
    sql = f"SELECT k, w FROM t WHERE {condition}"
    where = parse_one(sql).where
    n_crowd = len(crowd_predicates_of(where))
    table = [{"k": k, "w": w} for k, w in rows]

    platform, runs = _perfect_platform(lanes)
    session = _condition_session(platform, rows, optimize)
    plan = build_plan(parse_one(sql), session.database)
    if optimize:
        plan = Optimizer(session.database, CostModel(3)).optimize(plan)
    chain = _filter_chain(plan)
    asked: set[str] = set()
    expected = [
        row for row in table if all(_reference_value(p, row, asked) is True for p in chain)
    ]
    assert session.query(sql).rows == expected
    assert _published(platform) == asked
    assert len(runs) <= n_crowd

    platform, runs = _perfect_platform(lanes)
    session = _condition_session(platform, rows, optimize)
    session.execute(f"DELETE FROM t WHERE {condition}")
    asked = set()
    remaining = [row for row in table if _reference_value(where, row, asked) is not True]
    assert session.query("SELECT k, w FROM t").rows == remaining
    assert _published(platform) == asked
    assert len(runs) <= n_crowd
