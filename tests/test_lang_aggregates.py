"""Unit tests for CrowdSQL aggregates (COUNT/SUM/AVG/MIN/MAX, GROUP BY)."""

import pytest

from repro.errors import ExecutionError, ParseError
from repro.lang.ast_nodes import AggregateSpec
from repro.lang.executor import CrowdOracle
from repro.lang.interpreter import CrowdSQLSession
from repro.lang.parser import parse_one
from repro.platform.batch import BatchConfig
from repro.platform.platform import SimulatedPlatform
from repro.workers.pool import WorkerPool


@pytest.fixture
def session():
    s = CrowdSQLSession()
    s.execute(
        """
        CREATE TABLE sales (region STRING, amount FLOAT, qty INTEGER);
        INSERT INTO sales VALUES
            ('north', 10.0, 1), ('north', 20.0, 2),
            ('south', 5.0, 1), ('south', NULL, 3), ('west', 7.5, NULL);
        """
    )
    return s


class TestParsing:
    def test_count_star(self):
        stmt = parse_one("SELECT COUNT(*) FROM t")
        assert stmt.aggregates == (AggregateSpec("COUNT", None),)
        assert stmt.columns == ()

    def test_output_names(self):
        assert AggregateSpec("COUNT", None).output_name == "count"
        assert AggregateSpec("SUM", "price").output_name == "sum_price"

    def test_mixed_items(self):
        stmt = parse_one("SELECT region, COUNT(*), SUM(amount) FROM t GROUP BY region")
        assert stmt.columns == ("region",)
        assert len(stmt.aggregates) == 2
        assert stmt.group_by == "region"

    def test_star_only_for_count(self):
        with pytest.raises(ParseError, match="COUNT"):
            parse_one("SELECT SUM(*) FROM t")

    def test_plain_column_without_group_by_rejected(self):
        with pytest.raises(ParseError, match="GROUP BY"):
            parse_one("SELECT region, COUNT(*) FROM t")

    def test_group_by_without_aggregate_rejected(self):
        with pytest.raises(ParseError, match="aggregate"):
            parse_one("SELECT region FROM t GROUP BY region")

    def test_group_by_qualified_name(self):
        stmt = parse_one("SELECT COUNT(*) FROM t GROUP BY t.region")
        assert stmt.group_by == "region"


class TestExecution:
    def test_count_star(self, session):
        result = session.query("SELECT COUNT(*) FROM sales")
        assert result.rows == [{"count": 5}]
        assert result.columns == ("count",)

    def test_count_with_where(self, session):
        result = session.query("SELECT COUNT(*) FROM sales WHERE qty > 1")
        assert result.rows == [{"count": 2}]

    def test_sum_avg_skip_nulls(self, session):
        result = session.query("SELECT SUM(amount), AVG(amount) FROM sales")
        assert result.rows[0]["sum_amount"] == pytest.approx(42.5)
        assert result.rows[0]["avg_amount"] == pytest.approx(42.5 / 4)

    def test_min_max(self, session):
        result = session.query("SELECT MIN(qty), MAX(qty) FROM sales")
        assert result.rows[0] == {"min_qty": 1, "max_qty": 3}

    def test_min_max_strings(self, session):
        result = session.query("SELECT MIN(region), MAX(region) FROM sales")
        assert result.rows[0] == {"min_region": "north", "max_region": "west"}

    def test_group_by(self, session):
        result = session.query(
            "SELECT region, COUNT(*), AVG(amount) FROM sales GROUP BY region"
        )
        by_region = {r["region"]: r for r in result.rows}
        assert by_region["north"]["count"] == 2
        assert by_region["north"]["avg_amount"] == pytest.approx(15.0)
        assert by_region["south"]["count"] == 2
        assert by_region["south"]["avg_amount"] == pytest.approx(5.0)

    def test_group_by_deterministic_order(self, session):
        result = session.query("SELECT region, COUNT(*) FROM sales GROUP BY region")
        regions = [r["region"] for r in result.rows]
        assert regions == sorted(regions, key=repr)

    def test_empty_input_aggregates(self, session):
        session.execute("CREATE TABLE empty (x FLOAT)")
        result = session.query("SELECT COUNT(*), SUM(x) FROM empty")
        assert result.rows == [{"count": 0, "sum_x": None}]

    def test_sum_non_numeric_rejected(self, session):
        with pytest.raises(ExecutionError, match="numeric"):
            session.query("SELECT SUM(region) FROM sales")

    def test_unknown_column_rejected(self, session):
        with pytest.raises(ExecutionError, match="unknown column"):
            session.query("SELECT SUM(ghost) FROM sales")

    def test_limit_applies_to_groups(self, session):
        result = session.query(
            "SELECT region, COUNT(*) FROM sales GROUP BY region LIMIT 2"
        )
        assert len(result.rows) == 2

    def test_cnull_excluded_from_aggregates(self):
        s = CrowdSQLSession()
        s.execute(
            "CREATE TABLE t (k STRING, v FLOAT CROWD);"
            "INSERT INTO t VALUES ('a', 1.0), ('b', CNULL)"
        )
        # COUNT(v) counts only resolved cells; no fill oracle needed since
        # the aggregate skips CNULL... but the planner inserts a FillNode
        # for referenced crowd columns with pending cells, so provide one.
        oracle_session = CrowdSQLSession(
            database=s.database,
            platform=SimulatedPlatform(WorkerPool.uniform(5, 1.0, seed=1), seed=2),
            oracle=CrowdOracle(fill_fn=lambda row, col: 9.0),
            redundancy=1,
        )
        result = oracle_session.query("SELECT COUNT(v), SUM(v) FROM t")
        assert result.rows[0]["count_v"] == 2   # CNULL was crowd-filled first
        assert result.rows[0]["sum_v"] == pytest.approx(10.0)

    def test_explain_shows_aggregate(self, session):
        text = session.explain("SELECT region, COUNT(*) FROM sales GROUP BY region")
        assert "Aggregate(count GROUP BY region)" in text


@pytest.fixture
def readings():
    """FLOAT keys with two distinct NaN objects, a NULL and a repeat."""
    s = CrowdSQLSession()
    s.execute("CREATE TABLE readings (g FLOAT, v INTEGER)")
    table = s.database.table("readings")
    for g, v in ((float("nan"), 1), (1.5, 2), (float("nan"), 3), (None, 4), (1.5, 5)):
        table.insert({"g": g, "v": v})
    return s


class TestNanKeys:
    """NaN != NaN, yet GROUP BY and DISTINCT treat every NaN as one value."""

    def test_group_by_nan_keys_form_one_group(self, readings):
        result = readings.query("SELECT g, COUNT(*), SUM(v) FROM readings GROUP BY g")
        got = [(repr(r["g"]), r["count"], r["sum_v"]) for r in result.rows]
        assert got == [("1.5", 2, 7), ("None", 1, 4), ("nan", 2, 4)]

    def test_group_by_nan_keys_over_a_join(self, readings):
        # A join's output is grouped from its rows, not from column arrays;
        # NaNs must still form one group.
        readings.execute(
            "CREATE TABLE tags (t INTEGER, tag STRING);"
            "INSERT INTO tags VALUES (1, 'a'), (2, 'b'), (3, 'c'), (4, 'd'), (5, 'e')"
        )
        result = readings.query(
            "SELECT g, COUNT(*) FROM readings JOIN tags ON v = t GROUP BY g"
        )
        assert [(repr(r["g"]), r["count"]) for r in result.rows] == [
            ("1.5", 2), ("None", 1), ("nan", 2),
        ]

    def test_distinct_nan_appears_once(self, readings):
        result = readings.query("SELECT DISTINCT g FROM readings")
        assert [repr(r["g"]) for r in result.rows] == ["nan", "1.5", "None"]

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT DISTINCT g FROM readings WHERE CROWDFILTER(v, 'keep?')",
            "SELECT DISTINCT g FROM readings WHERE CROWDFILTER(v, 'keep?') ORDER BY v",
        ],
        ids=["emit", "drain"],
    )
    def test_streaming_distinct_nan_appears_once(self, readings, sql):
        platform = SimulatedPlatform(
            WorkerPool.uniform(6, 1.0, seed=1),
            seed=2,
            batch=BatchConfig(batch_size=4, max_parallel=2, seed=3),
        )
        session = CrowdSQLSession(
            database=readings.database,
            platform=platform,
            oracle=CrowdOracle(filter_fn=lambda value, question: True),
            redundancy=1,
            pipeline=True,
        )
        result = session.query(sql)
        assert [repr(r["g"]) for r in result.rows] == ["nan", "1.5", "None"]


@pytest.fixture
def floats():
    """FLOAT cells NaN, 3.0, NaN, 1.0, 2.0, NaN, 0.5 and a NULL, ids 1-8."""
    s = CrowdSQLSession()
    s.execute("CREATE TABLE f (id INTEGER, g STRING, x FLOAT)")
    table = s.database.table("f")
    nan = float("nan")
    cells = (("b", nan), ("a", 3.0), ("a", nan), ("a", 1.0), ("b", 2.0), ("c", nan),
             ("b", 0.5), ("b", None))
    for rowid, (group, x) in enumerate(cells, start=1):
        table.insert({"id": rowid, "g": group, "x": x})
    return s


class TestNanOrdering:
    """NaN compares False both ways: in ORDER BY it follows every number in
    either direction, in input order, and precedes NULL; MIN and MAX skip it
    unless every value is NaN."""

    @pytest.mark.parametrize(
        "direction, ids",
        [("", [7, 4, 5, 2, 1, 3, 6, 8]), ("DESC", [2, 5, 4, 7, 1, 3, 6, 8])],
    )
    def test_order_by_puts_nan_after_the_numbers(self, floats, direction, ids):
        rows = floats.query(f"SELECT id, x FROM f ORDER BY x {direction}").rows
        assert [r["id"] for r in rows] == ids

    def test_streamed_top_k_puts_nan_after_the_numbers(self, floats):
        platform = SimulatedPlatform(WorkerPool.uniform(6, 1.0, seed=1), seed=2)
        session = CrowdSQLSession(
            database=floats.database,
            platform=platform,
            oracle=CrowdOracle(filter_fn=lambda value, question: True),
            redundancy=1,
            pipeline=True,
        )
        rows = session.query(
            "SELECT id FROM f WHERE CROWDFILTER(id, 'keep?') ORDER BY x DESC LIMIT 6"
        ).rows
        assert [r["id"] for r in rows] == [2, 5, 4, 7, 1, 3]

    def test_min_max_skip_nan_in_any_row_order(self, floats):
        # Group a holds 3.0, NaN, 1.0 in that order; group b NaN, 2.0, 0.5.
        rows = floats.query("SELECT g, MIN(x), MAX(x) FROM f GROUP BY g").rows
        got = [(r["g"], repr(r["min_x"]), repr(r["max_x"])) for r in rows]
        assert got == [("a", "1.0", "3.0"), ("b", "0.5", "2.0"), ("c", "nan", "nan")]
        whole = floats.query("SELECT MIN(x), MAX(x) FROM f").rows
        assert (whole[0]["min_x"], whole[0]["max_x"]) == (0.5, 3.0)


class TestAggregatesOverCrowdPredicates:
    def test_count_after_crowd_filter(self):
        platform = SimulatedPlatform(WorkerPool.uniform(10, 0.95, seed=3), seed=4)
        oracle = CrowdOracle(filter_fn=lambda v, q: str(v).startswith("n"))
        session = CrowdSQLSession(platform=platform, oracle=oracle, redundancy=3)
        session.execute(
            "CREATE TABLE cities (cname STRING);"
            "INSERT INTO cities VALUES ('nice'), ('nantes'), ('lyon'), ('paris')"
        )
        result = session.query(
            "SELECT COUNT(*) FROM cities WHERE CROWDFILTER(cname, 'starts with n?')"
        )
        assert result.rows[0]["count"] == 2
        assert result.stats.crowd_questions == 4
