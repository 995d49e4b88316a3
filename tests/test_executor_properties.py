"""Property-based correctness tests: the CrowdSQL executor vs a Python
reference implementation on randomized tables and predicates."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.lang.interpreter import CrowdSQLSession

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
    distinct = session.query("SELECT DISTINCT g FROM f").rows
    assert [repr(r["g"]) for r in distinct] == list(dict.fromkeys(repr(g) for g, _v in rows))


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
