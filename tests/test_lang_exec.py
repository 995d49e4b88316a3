"""Unit tests for CrowdSQL planning, optimization, and execution."""

from collections import Counter

import pytest

from repro.data.database import Database
from repro.data.expressions import Comparison, CrowdPredicate, col, lit
from repro.data.schema import CNULL, SchemaBuilder
from repro.errors import ExecutionError, ExpressionError, PlanError
from repro.lang.executor import CrowdOracle, Executor
from repro.lang.interpreter import CrowdSQLSession, StatementResult
from repro.lang.optimizer import CostModel, Optimizer, estimate_plan_cost
from repro.lang.parser import parse_one
from repro.lang.planner import (
    CrowdFilterNode,
    CrowdJoinNode,
    FillNode,
    FilterNode,
    JoinNode,
    LimitNode,
    LogicalPlan,
    ProjectNode,
    ScanNode,
    build_plan,
    count_crowd_operators,
)
from repro.platform.platform import SimulatedPlatform
from repro.workers.pool import WorkerPool


@pytest.fixture
def db():
    database = Database()
    schema = (
        SchemaBuilder()
        .string("name", nullable=False)
        .integer("age")
        .crowd_string("hometown")
        .key("name")
        .build()
    )
    database.create_table(
        "people",
        schema,
        rows=[
            {"name": "ann", "age": 30, "hometown": "paris"},
            {"name": "bob", "age": 25, "hometown": "rome"},
            {"name": "cal", "age": 41, "hometown": "oslo"},
        ],
    )
    return database


@pytest.fixture
def session(db):
    platform = SimulatedPlatform(WorkerPool.uniform(12, 0.95, seed=1), seed=2)
    hometowns = {"ann": "paris", "bob": "rome", "cal": "oslo", "dee": "oslo"}
    oracle = CrowdOracle(
        fill_fn=lambda row, col: hometowns[row["name"]],
        filter_fn=lambda value, q: "o" in str(value),
    )
    return CrowdSQLSession(database=db, platform=platform, oracle=oracle, redundancy=3)


class TestPlanner:
    def test_plan_shape(self, db):
        stmt = parse_one("SELECT name FROM people WHERE age > 26 LIMIT 2")
        plan = build_plan(stmt, db)
        assert isinstance(plan.root, LimitNode)
        assert isinstance(plan.root.child, ProjectNode)
        assert isinstance(plan.root.child.child, FilterNode)
        assert isinstance(plan.root.child.child.child, ScanNode)

    def test_unknown_table_rejected(self, db):
        with pytest.raises(PlanError):
            build_plan(parse_one("SELECT * FROM ghosts"), db)

    def test_fill_inserted_only_when_crowd_column_referenced(self, db):
        db.table("people").insert({"name": "dee", "age": 5})  # hometown CNULL
        with_crowd = build_plan(parse_one("SELECT hometown FROM people"), db)
        without = build_plan(parse_one("SELECT name FROM people"), db)
        assert any(isinstance(n, FillNode) for n in with_crowd.root.walk())
        assert not any(isinstance(n, FillNode) for n in without.root.walk())

    def test_crowd_predicate_becomes_crowd_filter(self, db):
        stmt = parse_one("SELECT * FROM people WHERE CROWDFILTER(name, 'q?')")
        plan = build_plan(stmt, db)
        assert any(isinstance(n, CrowdFilterNode) for n in plan.root.walk())
        assert count_crowd_operators(plan) == 1

    def test_explain_renders_tree(self, db):
        plan = build_plan(parse_one("SELECT name FROM people WHERE age > 1"), db)
        text = plan.explain()
        assert "Scan(people)" in text and "Filter" in text


class TestOptimizer:
    def test_machine_filters_run_before_crowd(self, db):
        stmt = parse_one(
            "SELECT * FROM people WHERE CROWDFILTER(name, 'q?') AND age > 26"
        )
        plan = Optimizer(db).optimize(build_plan(stmt, db))
        # From the top: CrowdFilter above Filter above Scan.
        nodes = list(plan.root.walk())
        crowd_idx = next(i for i, n in enumerate(nodes) if isinstance(n, CrowdFilterNode))
        machine_idx = next(i for i, n in enumerate(nodes) if isinstance(n, FilterNode))
        assert crowd_idx < machine_idx  # walk is top-down: crowd on top

    def test_machine_filter_sinks_below_fill(self, db):
        db.table("people").insert({"name": "dee", "age": 5})
        stmt = parse_one("SELECT hometown FROM people WHERE age > 26")
        plan = Optimizer(db).optimize(build_plan(stmt, db))
        nodes = list(plan.root.walk())
        fill_idx = next(i for i, n in enumerate(nodes) if isinstance(n, FillNode))
        filter_idx = next(i for i, n in enumerate(nodes) if isinstance(n, FilterNode))
        assert fill_idx < filter_idx  # filter below fill = filter runs first

    def test_filter_on_crowd_column_stays_above_fill(self, db):
        db.table("people").insert({"name": "dee", "age": 5})
        stmt = parse_one("SELECT hometown FROM people WHERE hometown = 'paris'")
        plan = Optimizer(db).optimize(build_plan(stmt, db))
        nodes = list(plan.root.walk())
        fill_idx = next(i for i, n in enumerate(nodes) if isinstance(n, FillNode))
        filter_idx = next(i for i, n in enumerate(nodes) if isinstance(n, FilterNode))
        assert filter_idx < fill_idx

    def test_crowd_filters_ordered_by_cost(self, db):
        stmt = parse_one(
            "SELECT * FROM people WHERE CROWDFILTER(name, 'q?') AND CROWDEQUAL(name, hometown)"
        )
        plan = Optimizer(db).optimize(build_plan(stmt, db))
        crowd_nodes = [n for n in plan.root.walk() if isinstance(n, CrowdFilterNode)]
        assert len(crowd_nodes) == 2
        # CROWDEQUAL (selectivity 0.15) should run before CROWDFILTER (0.5):
        # walk order is top-down, so the later-executed node comes first.
        from repro.lang.planner import crowd_predicates_of

        top, bottom = crowd_nodes
        assert crowd_predicates_of(bottom.predicate)[0].kind == "equal"
        assert crowd_predicates_of(top.predicate)[0].kind == "filter"

    def test_optimized_cost_not_worse(self, db):
        stmt = parse_one(
            "SELECT * FROM people WHERE CROWDFILTER(name, 'q?') AND age > 26"
        )
        raw = build_plan(stmt, db)
        optimized = Optimizer(db).optimize(raw)
        model = CostModel()
        assert estimate_plan_cost(optimized, db, model) <= estimate_plan_cost(
            raw, db, model
        )

    def test_idempotent(self, db):
        stmt = parse_one(
            "SELECT * FROM people WHERE CROWDFILTER(name, 'q?') AND age > 26"
        )
        once = Optimizer(db).optimize(build_plan(stmt, db))
        twice = Optimizer(db).optimize(once)
        assert once.root.describe() == twice.root.describe()
        assert len(list(once.root.walk())) == len(list(twice.root.walk()))


@pytest.fixture
def shop_db():
    """Two machine-only tables (no crowd columns) for join pushdown."""
    database = Database()
    database.create_table(
        "stock",
        SchemaBuilder().string("item").integer("shop").integer("qty").build(),
        rows=[
            {"item": f"item {i}", "shop": i % 4, "qty": (i * 7) % 10} for i in range(24)
        ],
    )
    database.create_table(
        "shops",
        SchemaBuilder().integer("sid").string("city").build(),
        rows=[{"sid": s, "city": c} for s, c in enumerate(("rome", "oslo", "rome", "lima"))],
    )
    return database


def _run_plan(database, plan):
    platform = SimulatedPlatform(WorkerPool.uniform(12, 0.9, seed=1), seed=2)
    oracle = CrowdOracle(
        filter_fn=lambda value, q: "1" in str(value),
        equal_fn=lambda a, b: str(a).endswith(str(b)[-1]),
    )
    result = Executor(database, platform, redundancy=3, oracle=oracle).execute(plan)
    return result.rows, platform.stats.cost_spent


class TestJoinPushdown:
    SQL = (
        "SELECT item, city FROM stock JOIN shops ON shop = sid "
        "WHERE qty > 2 AND city = 'rome' AND qty < sid"
    )

    def test_conjuncts_sink_onto_their_input(self, shop_db):
        plan = Optimizer(shop_db).optimize(build_plan(parse_one(self.SQL), shop_db))
        join = next(n for n in plan.root.walk() if isinstance(n, JoinNode))
        assert isinstance(join.left, FilterNode) and repr(join.left.predicate) == "(qty > 2)"
        assert isinstance(join.right, FilterNode)
        assert repr(join.right.predicate) == "(city = 'rome')"
        # The conjunct spanning both inputs stays above the join.
        above = [n for n in plan.root.walk() if isinstance(n, FilterNode)]
        assert [repr(n.predicate) for n in above] == ["(qty < sid)", "(qty > 2)", "(city = 'rome')"]

    def test_explain_shows_filter_under_join(self, shop_db):
        text = CrowdSQLSession(database=shop_db).explain(self.SQL)
        lines = text.splitlines()
        join_at = next(i for i, line in enumerate(lines) if line.lstrip().startswith("Join("))
        assert any(
            line.lstrip().startswith("Filter((qty > 2))") for line in lines[join_at + 1:]
        )

    def test_rows_equal_unoptimized_plan(self, shop_db):
        raw = build_plan(parse_one(self.SQL), shop_db)
        optimized = Optimizer(shop_db).optimize(raw)
        assert _run_plan(shop_db, optimized) == _run_plan(shop_db, raw)

    def test_unknown_column_stays_above(self, shop_db):
        stmt = parse_one("SELECT * FROM stock JOIN shops ON shop = sid WHERE ghost > 1")
        plan = Optimizer(shop_db).optimize(build_plan(stmt, shop_db))
        assert isinstance(plan.root, FilterNode)
        join = plan.root.child
        assert isinstance(join, JoinNode)
        assert (join.left, join.right) == (ScanNode("stock"), ScanNode("shops"))

    @pytest.mark.parametrize(
        "where",
        [
            # The join matches rows; the conjunct kept above it empties the set.
            "shop <> sid AND item > 1",
            # A pushed conjunct empties the right input; the join matches nothing.
            "city = 'paris' AND item > 1",
        ],
    )
    def test_pushed_ill_typed_conjunct_raises_on_any_input_row(self, shop_db, where):
        stmt = parse_one(f"SELECT * FROM stock JOIN shops ON shop = sid WHERE {where}")
        raw = build_plan(stmt, shop_db)
        # As written, no row ever reaches the ill-typed `item > 1`.
        assert _run_plan(shop_db, raw) == ([], 0)
        # Pushed onto the left input, it meets every stock row first.
        with pytest.raises(ExpressionError, match="cannot compare"):
            _run_plan(shop_db, Optimizer(shop_db).optimize(raw))

    def test_not_pushed_below_crowd_join(self, shop_db):
        stmt = parse_one(
            "SELECT item, city FROM stock CROWDJOIN shops ON CROWDEQUAL(item, city) "
            "WHERE qty > 5"
        )
        raw = build_plan(stmt, shop_db)
        optimized = Optimizer(shop_db).optimize(raw)
        crowd_join = next(n for n in optimized.root.walk() if isinstance(n, CrowdJoinNode))
        assert not any(isinstance(n, FilterNode) for n in crowd_join.walk())
        rows, spent = _run_plan(shop_db, optimized)
        assert spent > 0
        assert (rows, spent) == _run_plan(shop_db, raw)

    def test_not_pushed_into_input_with_crowd_filter(self, shop_db):
        crowd_left = CrowdFilterNode(
            ScanNode("stock"), CrowdPredicate("filter", (col("item"),), question="q?")
        )
        raw = LogicalPlan(
            FilterNode(
                JoinNode(crowd_left, ScanNode("shops"), Comparison("=", col("shop"), col("sid"))),
                Comparison(">", col("qty"), lit(5)),
            )
        )
        optimized = Optimizer(shop_db).optimize(raw)
        assert isinstance(optimized.root, FilterNode)
        assert isinstance(optimized.root.child, JoinNode)
        left = optimized.root.child.left
        assert isinstance(left, CrowdFilterNode) and left.child == ScanNode("stock")
        rows, spent = _run_plan(shop_db, optimized)
        assert spent > 0
        assert (rows, spent) == _run_plan(shop_db, raw)


class TestExecution:
    def test_machine_query(self, session):
        result = session.query("SELECT name, age FROM people WHERE age > 26 ORDER BY age")
        assert [r["name"] for r in result.rows] == ["ann", "cal"]
        assert result.stats.crowd_questions == 0

    def test_order_desc(self, session):
        result = session.query("SELECT name FROM people ORDER BY age DESC")
        assert [r["name"] for r in result.rows] == ["cal", "ann", "bob"]

    def test_limit(self, session):
        assert len(session.query("SELECT * FROM people LIMIT 2")) == 2

    def test_distinct(self, session):
        session.execute(
            "CREATE TABLE tags (tag STRING);"
            "INSERT INTO tags VALUES ('a'), ('a'), ('b')"
        )
        result = session.query("SELECT DISTINCT tag FROM tags")
        assert sorted(r["tag"] for r in result.rows) == ["a", "b"]

    def test_machine_join(self, session):
        session.execute(
            "CREATE TABLE cities (cname STRING, country STRING);"
            "INSERT INTO cities VALUES ('paris', 'france'), ('rome', 'italy')"
        )
        result = session.query(
            "SELECT name, country FROM people JOIN cities ON hometown = cname"
        )
        by_name = {r["name"]: r["country"] for r in result.rows}
        assert by_name == {"ann": "france", "bob": "italy"}

    def test_join_name_clash_rejected(self, session):
        session.execute(
            "CREATE TABLE other (name STRING, x INTEGER);"
            "INSERT INTO other VALUES ('ann', 1)"
        )
        with pytest.raises(ExecutionError, match="share column"):
            session.query("SELECT * FROM people JOIN other ON x = age")

    def test_crowd_fill_resolves_cnull(self, session):
        session.execute("INSERT INTO people (name, age) VALUES ('dee', 19)")
        result = session.query("SELECT name, hometown FROM people WHERE name = 'dee'")
        assert result.rows[0]["hometown"] == "oslo" or result.rows[0]["hometown"] in (
            "paris", "rome", "oslo"
        )
        assert result.stats.cells_filled == 1

    def test_fill_without_oracle_raises(self, db):
        platform = SimulatedPlatform(WorkerPool.uniform(5, seed=1), seed=2)
        session = CrowdSQLSession(database=db, platform=platform)
        db.table("people").insert({"name": "dee", "age": 5})
        with pytest.raises(ExecutionError, match="fill oracle"):
            session.query("SELECT hometown FROM people")

    def test_crowdfilter_query(self, session):
        result = session.query(
            "SELECT name FROM people WHERE CROWDFILTER(hometown, 'contains o?')"
        )
        names = {r["name"] for r in result.rows}
        assert names == {"bob", "cal"}  # rome, oslo contain 'o'
        assert result.stats.crowd_questions >= 3

    def test_crowdfilter_without_oracle_raises(self, db):
        platform = SimulatedPlatform(WorkerPool.uniform(5, seed=1), seed=2)
        session = CrowdSQLSession(database=db, platform=platform)
        with pytest.raises(ExecutionError, match="filter oracle"):
            session.query("SELECT * FROM people WHERE CROWDFILTER(name, 'q')")

    def test_machine_first_saves_crowd_questions(self, session):
        result = session.query(
            "SELECT name FROM people WHERE CROWDFILTER(hometown, 'q?') AND age > 26"
        )
        # Machine filter leaves 2 rows, so at most 2 crowd questions.
        assert result.stats.crowd_questions <= 2

    def test_crowdequal_join(self, session):
        session.execute(
            "CREATE TABLE aliases (alias STRING);"
            "INSERT INTO aliases VALUES ('rome'), ('nowhere')"
        )
        result = session.query(
            "SELECT name FROM people CROWDJOIN aliases ON CROWDEQUAL(hometown, alias)"
        )
        assert {r["name"] for r in result.rows} == {"bob"}

    def test_crowdorder_numeric(self, session):
        session.execute(
            "CREATE TABLE scores (label STRING, points FLOAT);"
            "INSERT INTO scores VALUES ('low', 1.0), ('high', 9.0), ('mid', 5.0)"
        )
        result = session.query("SELECT label FROM scores CROWDORDER BY points")
        assert [r["label"] for r in result.rows] == ["high", "mid", "low"]
        assert result.stats.crowd_questions > 0

    def test_crowdorder_non_numeric_needs_oracle(self, session):
        with pytest.raises(ExecutionError, match="order_score_fn"):
            session.query("SELECT name FROM people CROWDORDER BY name")

    def test_predicate_cache_dedupes(self, session):
        first = session.query(
            "SELECT name FROM people WHERE CROWDFILTER(hometown, 'cached?')"
        )
        assert first.stats.crowd_questions == 3

    def test_crowdequal_pairs_publish_once_within_and_across_statements(self, db):
        from repro.platform.cache import AnswerCache

        platform = SimulatedPlatform(WorkerPool.uniform(12, 0.95, seed=1), seed=2)
        platform.attach_cache(AnswerCache())
        session = CrowdSQLSession(database=db, platform=platform, redundancy=3)
        session.execute(
            "CREATE TABLE aliases (alias STRING);"
            "INSERT INTO aliases VALUES ('rome'), ('rome'), ('oslo')"
        )
        query = "SELECT name FROM people CROWDJOIN aliases ON CROWDEQUAL(hometown, alias)"

        first = session.query(query)
        # 3 hometowns x 3 alias rows = 9 pairs, but only the 6 distinct
        # value pairs reach the crowd: the duplicated 'rome' alias coalesces
        # per statement via the executor's verdict memo.
        assert platform.stats.tasks_published == 6
        assert sorted(r["name"] for r in first.rows) == ["bob", "bob", "cal"]

        second = session.query(query)
        # A fresh executor runs the second statement, but every pair is
        # served from the shared platform cache: nothing new is published.
        assert platform.stats.tasks_published == 6
        assert platform.cache.hits > 0
        assert sorted(r["name"] for r in second.rows) == ["bob", "bob", "cal"]

    def test_budget_accounting(self, session):
        result = session.query(
            "SELECT name FROM people WHERE CROWDFILTER(hometown, 'pay?')"
        )
        assert result.stats.crowd_cost == pytest.approx(
            result.stats.crowd_answers * 0.01
        )


class TestSessionStatements:
    def test_create_insert_drop(self, session):
        results = session.execute(
            "CREATE TABLE x (a STRING); INSERT INTO x VALUES ('v'); DROP TABLE x"
        )
        kinds = [r.kind for r in results if isinstance(r, StatementResult)]
        assert kinds == ["created", "inserted", "dropped"]
        assert "x" not in session.database

    def test_insert_arity_checked(self, session):
        with pytest.raises(ExecutionError, match="values for"):
            session.execute("CREATE TABLE y (a STRING, b STRING); INSERT INTO y (a) VALUES ('v', 'w')")
        # A short second row fails the statement before the first is stored.
        with pytest.raises(ExecutionError, match="values for"):
            session.execute("INSERT INTO y VALUES ('v', 'w'), ('x')")
        assert len(session.database.table("y")) == 0

    def test_query_requires_select_last(self, session):
        with pytest.raises(ExecutionError):
            session.query("CREATE TABLE z (a STRING)")

    def test_machine_only_session_needs_no_platform(self, db):
        session = CrowdSQLSession(database=db)
        result = session.query("SELECT name FROM people WHERE age > 26")
        assert len(result) == 2

    def test_machine_only_queries_build_no_worker(self, db):
        # Worker ids come from a process-wide counter, so a platform-less
        # query that built a throwaway pool would move it.
        from repro.workers.worker import Worker

        session = CrowdSQLSession(database=db)
        first = int(Worker().worker_id[1:])
        session.query("SELECT name FROM people WHERE age > 26")
        session.query("SELECT COUNT(*) FROM people")
        assert int(Worker().worker_id[1:]) == first + 1

    def test_platformless_crowd_query_rejected(self, db):
        session = CrowdSQLSession(database=db)
        with pytest.raises(ExecutionError, match="no platform"):
            session.query("SELECT * FROM people WHERE CROWDFILTER(name, 'q')")

    def test_explain_reports_cost(self, session):
        text = session.explain(
            "SELECT name FROM people WHERE CROWDFILTER(name, 'q?') AND age > 26"
        )
        assert "estimated crowd cost" in text
        assert "CrowdFilter" in text

    def test_insert_cnull_literal(self, session):
        session.execute(
            "CREATE TABLE c (k STRING, v STRING CROWD);"
            "INSERT INTO c VALUES ('a', CNULL)"
        )
        table = session.database.table("c")
        assert table.row(1)["v"] is CNULL


class TestMultiKeyOrder:
    def test_order_by_two_keys(self, session):
        session.execute(
            "CREATE TABLE g (grp STRING, v INTEGER);"
            "INSERT INTO g VALUES ('b', 1), ('a', 2), ('a', 1), ('b', 2)"
        )
        result = session.query("SELECT grp, v FROM g ORDER BY grp ASC, v DESC")
        assert [(r["grp"], r["v"]) for r in result.rows] == [
            ("a", 2), ("a", 1), ("b", 2), ("b", 1),
        ]

    def test_nulls_sort_last_within_group(self, session):
        session.execute(
            "CREATE TABLE h (grp STRING, v INTEGER);"
            "INSERT INTO h VALUES ('a', NULL), ('a', 1), ('b', 5)"
        )
        result = session.query("SELECT grp, v FROM h ORDER BY grp, v")
        assert [(r["grp"], r["v"]) for r in result.rows] == [
            ("a", 1), ("a", None), ("b", 5),
        ]

    def test_unknown_second_key_rejected(self, session):
        with pytest.raises(ExecutionError, match="unknown column"):
            session.query("SELECT name FROM people ORDER BY name, ghost")


def _batch_db(n: int = 12) -> Database:
    """*n* items whose names repeat every 8 rows, plus a 4-row label table."""
    database = Database()
    database.create_table(
        "items",
        SchemaBuilder().integer("id").string("name").integer("price").build(),
        rows=[{"id": i, "name": f"item {i % 8}", "price": i % 5} for i in range(n)],
    )
    database.create_table(
        "refs",
        SchemaBuilder().string("label").build(),
        rows=[{"label": f"item {i}"} for i in (0, 3, 6, 9)],
    )
    return database


def _batch_session(pipeline: bool = False, cache: bool = False):
    from repro.platform.cache import AnswerCache

    platform = SimulatedPlatform(WorkerPool.uniform(6, 1.0, seed=1), seed=2)
    if cache:
        platform.attach_cache(AnswerCache())
    return CrowdSQLSession(
        database=_batch_db(),
        platform=platform,
        oracle=CrowdOracle(filter_fn=lambda value, _q: int(value.split()[-1]) % 2 == 0),
        redundancy=3,
        pipeline=pipeline,
    )


def _count_runs(monkeypatch) -> list[int]:
    """Patch BatchScheduler.run to record each run's task count."""
    from repro.platform.batch import BatchScheduler

    sizes: list[int] = []
    original = BatchScheduler.run

    def run(self, tasks, *args, **kwargs):
        sizes.append(len(tasks))
        return original(self, tasks, *args, **kwargs)

    monkeypatch.setattr(BatchScheduler, "run", run)
    return sizes


PREFIX_FILTER_SQL = "SELECT id FROM items WHERE price > 0 AND CROWDFILTER(name, 'even?')"


class TestOneRunPerOperator:
    """A crowd operator buys all its questions in one scheduler run, and each
    planned row's signature is computed once."""

    @pytest.mark.parametrize("pipeline", [False, True])
    def test_crowdfilter_select_is_one_run(self, monkeypatch, pipeline):
        session = _batch_session(pipeline)
        sizes = _count_runs(monkeypatch)
        result = session.query(PREFIX_FILTER_SQL)
        # 12 rows, 9 with price > 0, over 7 distinct names: one run of 7.
        assert sizes == [7]
        assert result.stats.crowd_questions == 7
        assert [r["id"] for r in result.rows] == [2, 4, 6, 8]

    def test_crowdjoin_is_one_run(self, monkeypatch):
        session = _batch_session()
        sizes = _count_runs(monkeypatch)
        result = session.query(
            "SELECT id, label FROM items CROWDJOIN refs ON CROWDEQUAL(name, label)"
        )
        # 12 x 4 pairs over 8 x 4 distinct value pairs.
        assert sizes == [32]
        assert [(r["id"], r["label"]) for r in result.rows] == [
            (0, "item 0"), (3, "item 3"), (6, "item 6"), (8, "item 0"), (11, "item 3"),
        ]

    def test_crowd_delete_where_is_one_run(self, monkeypatch):
        session = _batch_session()
        sizes = _count_runs(monkeypatch)
        session.execute("DELETE FROM items WHERE CROWDFILTER(name, 'even?')")
        assert sizes == [8]
        left = session.query("SELECT id FROM items")
        assert [r["id"] for r in left.rows] == [1, 3, 5, 7, 9, 11]

    @pytest.mark.parametrize("pipeline", [False, True])
    def test_signature_once_per_planned_row(self, monkeypatch, pipeline):
        import repro.lang.executor as executor_mod
        import repro.platform.cache as cache_mod

        session = _batch_session(pipeline, cache=True)
        calls: list[str] = []

        def counted(sign):
            def counting(*args, **kwargs):
                calls.append("call")
                return sign(*args, **kwargs)

            return counting

        # Every question the planner signs, and every one the cache signs
        # itself (a task that does not carry its signature).
        def counted_signer(*args, _original=executor_mod.question_signer, **kwargs):
            return counted(_original(*args, **kwargs))

        monkeypatch.setattr(executor_mod, "question_signer", counted_signer)
        monkeypatch.setattr(cache_mod, "signature_of", counted(cache_mod.signature_of))
        session.query(PREFIX_FILTER_SQL)
        assert len(calls) == 9  # rows with price > 0; the cache hashes nothing
        warm = session.query(PREFIX_FILTER_SQL)
        assert len(calls) == 18
        assert warm.stats.crowd_answers == 21  # 7 questions, all served by the cache
        assert session.platform.stats.tasks_published == 7


#: The two CROWDFILTER questions over "item <n>": 'a?' holds for even n,
#: 'b?' for multiples of 3.
_QUESTION_TRUTH = {"a?": lambda n: n % 2 == 0, "b?": lambda n: n % 3 == 0}


def _sixty_session(
    optimize: bool = True, filter_oracle: bool = True, pipeline: bool = False
) -> CrowdSQLSession:
    """60 distinct items "item <n>" with w = n % 7, and perfect workers."""
    database = Database()
    database.create_table(
        "t",
        SchemaBuilder().string("k").integer("w").build(),
        rows=[{"k": f"item {n}", "w": n % 7} for n in range(60)],
    )

    def filter_fn(value, question):
        return _QUESTION_TRUTH[question](int(value.split()[-1]))

    return CrowdSQLSession(
        database=database,
        platform=SimulatedPlatform(WorkerPool.uniform(6, 1.0, seed=1), seed=2),
        oracle=CrowdOracle(filter_fn=filter_fn if filter_oracle else None),
        redundancy=3,
        optimize=optimize,
        pipeline=pipeline,
    )


def _count_verdict_calls(monkeypatch) -> Counter:
    """Count majority vote's ``infer`` and ``infer_each`` calls and scheduler runs."""
    from repro.platform.batch import BatchScheduler
    from repro.quality.truth import MajorityVote

    calls: Counter = Counter()
    for owner, name in (
        (MajorityVote, "infer"),
        (MajorityVote, "infer_each"),
        (BatchScheduler, "run"),
    ):
        original = getattr(owner, name, None)
        if original is None:
            continue

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


class TestOneInferenceCallPerRun:
    """Every crowd run's verdicts are decided with one ``infer_each`` call:
    no crowd operator infers question by question."""

    @pytest.mark.parametrize(
        "pipeline, batch_size",
        # The stream decides per landed wave: one wave of 64 holds all 60.
        [(False, 32), (True, 64)],
        ids=["barrier", "streamed_limit"],
    )
    def test_crowdfilter(self, monkeypatch, pipeline, batch_size):
        from repro.platform.batch import BatchConfig

        session = _sixty_session(pipeline=pipeline)
        session.platform.attach_scheduler(BatchConfig(batch_size=batch_size))
        calls = _count_verdict_calls(monkeypatch)
        result = session.query("SELECT k FROM t WHERE CROWDFILTER(k, 'a?') LIMIT 100")
        assert [r["k"] for r in result.rows] == [f"item {n}" for n in range(0, 60, 2)]
        assert result.stats.crowd_questions == 60
        assert calls == {"run": 1, "infer_each": 1}

    def test_streamed_limit_decides_each_wave_once(self, monkeypatch):
        session = _sixty_session(pipeline=True)
        calls = _count_verdict_calls(monkeypatch)
        waves = session.platform.scheduler.batches_run
        result = session.query("SELECT k FROM t WHERE CROWDFILTER(k, 'a?') LIMIT 100")
        waves = session.platform.scheduler.batches_run - waves
        assert result.stats.crowd_questions == 60
        assert waves == 2  # 32 + 28 questions
        assert calls == {"run": 1, "infer_each": waves}

    def test_crowdjoin(self, monkeypatch):
        session = _sixty_session()
        session.execute("CREATE TABLE u (name STRING); INSERT INTO u VALUES ('item 3'), ('x')")
        calls = _count_verdict_calls(monkeypatch)
        result = session.query("SELECT k, name FROM t CROWDJOIN u ON CROWDEQUAL(k, name)")
        assert result.rows == [{"k": "item 3", "name": "item 3"}]
        assert result.stats.crowd_questions == 120
        assert calls == {"run": 1, "infer_each": 1}

    def test_crowdorder_by(self, monkeypatch):
        session = _sixty_session()
        session.execute(
            "CREATE TABLE s (label STRING, points INTEGER);"
            "INSERT INTO s VALUES ('c', 3), ('a', 9), ('e', 1), ('b', 7), ('d', 5)"
        )
        calls = _count_verdict_calls(monkeypatch)
        result = session.query("SELECT label FROM s CROWDORDER BY points")
        assert sorted(r["label"] for r in result.rows) == ["a", "b", "c", "d", "e"]
        assert calls["infer"] == 0
        assert calls["run"] > 1  # merge sort buys one comparison per run
        assert calls["infer_each"] == calls["run"]

    def test_crowd_join_verify_batch(self, monkeypatch):
        from repro.operators.join import CrowdJoin

        platform = SimulatedPlatform(WorkerPool.uniform(6, 1.0, seed=1), seed=2)
        records = [f"r{n % 20}" for n in range(60)]
        join = CrowdJoin(platform, truth_fn=lambda a, b: a == b)
        calls = _count_verdict_calls(monkeypatch)
        pairs = [(n, n + 20) for n in range(40)]
        assert join._verify_batch(records, pairs) == [True] * 40
        assert calls == {"run": 1, "infer_each": 1}


class TestOneRunPerCrowdPredicate:
    """A condition with several crowd predicates, or one under OR/NOT, buys
    each crowd predicate's questions in one scheduler run and keeps the rows
    a per-row evaluation keeps."""

    @pytest.mark.parametrize(
        "sql, optimize, keep, predicates",
        [
            (
                "SELECT k FROM t WHERE CROWDFILTER(k, 'a?') OR CROWDFILTER(k, 'b?')",
                True,
                lambda n, w: n % 2 == 0 or n % 3 == 0,
                2,
            ),
            (
                "SELECT k FROM t WHERE NOT CROWDFILTER(k, 'a?') AND w > 3",
                True,
                lambda n, w: n % 2 != 0 and w > 3,
                1,
            ),
            (
                "SELECT k FROM t WHERE CROWDFILTER(k, 'a?') AND w < 3",
                False,
                lambda n, w: n % 2 == 0 and w < 3,
                1,
            ),
        ],
    )
    def test_at_most_one_run_per_crowd_predicate(
        self, monkeypatch, sql, optimize, keep, predicates
    ):
        session = _sixty_session(optimize)
        sizes = _count_runs(monkeypatch)
        result = session.query(sql)
        assert len(sizes) <= predicates
        assert [r["k"] for r in result.rows] == [
            f"item {n}" for n in range(60) if keep(n, n % 7)
        ]


class TestCrowdPredicatesCheckedBeforePurchase:
    """A statement with a crowd predicate that cannot be asked raises before
    its first purchase, even behind a crowd predicate that could be."""

    def test_missing_filter_oracle(self):
        session = _sixty_session(filter_oracle=False)
        with pytest.raises(ExecutionError) as raised:
            session.query(
                "SELECT k FROM t WHERE CROWDEQUAL(k, 'item 1') AND CROWDFILTER(k, 'q?')"
            )
        assert str(raised.value) == "query uses CROWDFILTER but no filter oracle is configured"
        assert session.platform.stats.cost_spent == 0

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT id FROM items "
            "WHERE CROWDEQUAL(name, 'item 1') AND CROWDFILTER(nosuch, 'q?')",
            "SELECT id, label FROM items "
            "CROWDJOIN refs ON CROWDEQUAL(name, label) AND CROWDEQUAL(nosuch, label)",
            "DELETE FROM items WHERE CROWDFILTER(name, 'even?') AND CROWDFILTER(nosuch, 'q?')",
            # A machine arm an earlier crowd answer could short-circuit.
            "SELECT id FROM items WHERE CROWDFILTER(name, 'even?') OR nosuch > 3",
        ],
    )
    def test_unknown_column_in_a_crowd_condition(self, sql):
        session = _batch_session()
        with pytest.raises(ExpressionError) as raised:
            session.execute(sql)
        assert str(raised.value) == "row has no column 'nosuch'"
        assert session.platform.stats.cost_spent == 0
        assert len(session.database.table("items")) == 12


class TestRaisingRunKeepsPaidAnswers:
    """A statement that runs out of budget keeps the answers it paid for in
    the cache, so re-running it after the budget is lifted buys the rest
    only."""

    @pytest.mark.parametrize("pipeline", [False, True])
    def test_rerun_after_budget_error_buys_only_the_rest(self, pipeline):
        from repro.errors import BudgetExceededError
        from repro.platform.cache import AnswerCache

        database = Database()
        database.create_table(
            "items",
            SchemaBuilder().integer("id").string("name").build(),
            rows=[{"id": i, "name": f"item {i}"} for i in range(100)],
        )
        platform = SimulatedPlatform(
            WorkerPool.uniform(6, 1.0, seed=1), seed=2, budget=1.5
        )
        platform.attach_cache(AnswerCache())
        session = CrowdSQLSession(
            database=database,
            platform=platform,
            oracle=CrowdOracle(filter_fn=lambda value, _q: True),
            redundancy=3,
            pipeline=pipeline,
        )
        sql = "SELECT id FROM items WHERE CROWDFILTER(name, 'keep?')"
        with pytest.raises(BudgetExceededError):
            session.query(sql)
        assert platform.stats.cost_spent == pytest.approx(1.5)
        assert len(platform.cache) == 50
        platform.budget = float("inf")
        result = session.query(sql)
        assert len(result.rows) == 100
        # 50 questions were paid before the error and are served, not rebought.
        assert platform.stats.cost_spent == pytest.approx(3.0)
        assert platform.cache.hits == 50


def _table_session(columns, rows, optimize: bool = True) -> CrowdSQLSession:
    """Table ``t`` with *columns* ((name, type) pairs) and *rows*, perfect
    workers and a filter oracle that keeps every value."""
    builder = SchemaBuilder()
    for name, ctype in columns:
        getattr(builder, ctype)(name)
    database = Database()
    database.create_table("t", builder.build(), rows=rows)
    return CrowdSQLSession(
        database=database,
        platform=SimulatedPlatform(WorkerPool.uniform(6, 1.0, seed=1), seed=2),
        oracle=CrowdOracle(filter_fn=lambda _value, _q: True),
        redundancy=3,
        optimize=optimize,
    )


class TestCrowdHaving:
    """A crowd predicate in HAVING is planned as one in WHERE is: a crowd
    filter over the groups, asked with or without the optimizer."""

    @pytest.mark.parametrize("optimize", [True, False])
    def test_each_group_is_asked(self, optimize):
        session = _table_session(
            [("k", "string"), ("v", "integer")],
            [{"k": f"g{n % 3}", "v": n} for n in range(6)],
            optimize=optimize,
        )
        result = session.query(
            "SELECT k, COUNT(*) FROM t GROUP BY k HAVING CROWDFILTER(k, 'keep?')"
        )
        assert sorted(r["k"] for r in result.rows) == ["g0", "g1", "g2"]
        assert result.stats.crowd_questions == 3


class TestCrowdOrderInputs:
    def test_string_column_without_score_oracle_raises_before_buying(self):
        session = _table_session([("k", "string")], [{"k": f"item {n}"} for n in range(3)])
        with pytest.raises(ExecutionError, match="order_score_fn"):
            session.query("SELECT k FROM t WHERE CROWDFILTER(k, 'keep?') CROWDORDER BY k")
        assert session.platform.stats.cost_spent == 0
        assert session.platform.stats.tasks_published == 0

    def test_null_cells_follow_the_sorted_rows_unasked(self):
        columns = [("label", "string"), ("points", "integer")]
        points = {"a": 5, "n1": None, "b": 9, "c": 1, "n2": None}
        rows = [{"label": label, "points": p} for label, p in points.items()]
        sql = "SELECT label FROM t CROWDORDER BY points"
        with_nulls = _table_session(columns, rows).query(sql)
        present = [r for r in rows if r["points"] is not None]
        without = _table_session(columns, present).query(sql)
        labels = [r["label"] for r in with_nulls.rows]
        assert labels == [r["label"] for r in without.rows] + ["n1", "n2"]
        assert with_nulls.stats.crowd_questions == without.stats.crowd_questions > 0
