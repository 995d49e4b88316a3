"""Streaming pipelined executor: determinism, cancellation, and recovery.

The contract under test (DESIGN.md §12): with ``pipeline=on`` and no early
termination, rows *and* stats are bit-identical to the barrier executor at
the same seed; TOP-K/LIMIT plans questions only as the scheduler's waves
pull them and stops at the LIMIT, counting the candidates it never reached
as cancelled without double-counting spend or poisoning the answer cache;
every other plan shape runs the barrier path; a statement naming an
unknown column fails before any purchase under either executor.
"""

import sys
import threading

import pytest

from repro.data.database import Database
from repro.data.expressions import And, Comparison, CrowdPredicate, col, lit
from repro.data.persistence import load_database, save_database
from repro.data.schema import SchemaBuilder
from repro.errors import ExecutionError, UnknownColumnError
from repro.lang.executor import CrowdOracle, Executor
from repro.lang.interpreter import CrowdSQLSession
from repro.lang.planner import (
    CrowdFilterNode,
    JoinNode,
    LimitNode,
    LogicalPlan,
    OrderNode,
    ScanNode,
)
from repro.lang.streaming import StreamingExecutor, _Unsupported
from repro.obs.metrics import MetricsRegistry, normalize_labels, series_key
from repro.obs.prom import render_prometheus
from repro.obs.sinks import MemorySink
from repro.obs.tracer import Tracer
from repro.platform.batch import BatchConfig
from repro.platform.cache import AnswerCache
from repro.platform.platform import SimulatedPlatform
from repro.platform.task import Task, TaskType
from repro.recovery import Checkpoint
from repro.workers.pool import WorkerPool

N_ITEMS = 60

FILTER_SQL = (
    "SELECT name, price FROM items "
    "WHERE price > 10 AND CROWDFILTER(name, 'is it in stock?')"
)
TOPK_SQL = (
    "SELECT name, price FROM items "
    "WHERE CROWDFILTER(name, 'is it in stock?') "
    "ORDER BY price DESC LIMIT 5"
)


def make_database() -> Database:
    database = Database()
    items = (
        SchemaBuilder().integer("id").string("name").integer("cat").integer("price").build()
    )
    database.create_table(
        "items",
        items,
        rows=[
            {"id": i, "name": f"item {i}", "cat": i % 7, "price": (i * 37) % 100}
            for i in range(N_ITEMS)
        ],
    )
    labels = SchemaBuilder().integer("ref").string("label").build()
    database.create_table(
        "labels", labels, rows=[{"ref": r, "label": f"group {r}"} for r in range(7)]
    )
    return database


def make_platform(
    accuracy: float | None = None,
    seed: int = 5,
    metrics: MetricsRegistry | None = None,
) -> SimulatedPlatform:
    """8 lanes so pipelining has parallelism to exploit."""
    if accuracy is None:
        pool = WorkerPool.heterogeneous(
            12, accuracy_low=0.75, accuracy_high=0.97, seed=seed
        )
    else:
        pool = WorkerPool.uniform(12, accuracy, seed=seed)
    return SimulatedPlatform(
        pool,
        seed=seed + 1,
        batch=BatchConfig(batch_size=16, max_parallel=8, seed=seed + 2),
        metrics=metrics,
    )


def make_oracle() -> CrowdOracle:
    return CrowdOracle(
        filter_fn=lambda value, _q: int(str(value).split()[-1]) % 3 == 0
    )


def make_session(
    pipeline: bool,
    accuracy: float | None = None,
    seed: int = 5,
    metrics: MetricsRegistry | None = None,
) -> CrowdSQLSession:
    return CrowdSQLSession(
        database=make_database(),
        platform=make_platform(accuracy, seed, metrics),
        oracle=make_oracle(),
        redundancy=3,
        pipeline=pipeline,
    )


def crowd_filter(question: str = "is it in stock?") -> CrowdPredicate:
    return CrowdPredicate("filter", (col("name"),), question=question)


def join_plan() -> LogicalPlan:
    predicate = And(Comparison(">", col("price"), lit(10)), crowd_filter())
    root = JoinNode(
        CrowdFilterNode(ScanNode("items"), predicate),
        ScanNode("labels"),
        Comparison("=", col("cat"), col("ref")),
    )
    return LogicalPlan(root=root)


def topk_plan(limit: int = 5) -> LogicalPlan:
    root = LimitNode(
        OrderNode(
            CrowdFilterNode(ScanNode("items"), crowd_filter()),
            (("price", False), ("id", True)),
        ),
        limit,
    )
    return LogicalPlan(root=root)


def run_plan(plan: LogicalPlan, pipelined: bool, accuracy: float | None = None):
    """One fresh platform per run; returns (query result, platform)."""
    platform = make_platform(accuracy)
    executor_cls = StreamingExecutor if pipelined else Executor
    executor = executor_cls(make_database(), platform, redundancy=3, oracle=make_oracle())
    return executor.execute(plan), platform


class TestStreamingEquivalence:
    """pipeline=on is bit-identical to barrier when nothing terminates early."""

    def test_sql_filter_rows_and_stats_match_barrier(self):
        barrier = make_session(pipeline=False)
        piped = make_session(pipeline=True)
        expected = barrier.query(FILTER_SQL)
        got = piped.query(FILTER_SQL)
        assert got.rows == expected.rows
        assert got.stats == expected.stats
        assert (
            piped.platform.stats.cost_spent == barrier.platform.stats.cost_spent
        )
        # Both executors buy the filter's questions in one scheduler run, so
        # the 8 lanes fill the same way and the clocks agree.
        assert (
            piped.platform.scheduler.simulated_clock
            == barrier.platform.scheduler.simulated_clock
        )

    def test_programmatic_filter_join_matches_barrier(self):
        expected, barrier_platform = run_plan(join_plan(), pipelined=False)
        got, piped_platform = run_plan(join_plan(), pipelined=True)
        assert got.rows == expected.rows
        assert got.stats == expected.stats
        assert piped_platform.stats.cost_spent == barrier_platform.stats.cost_spent
        assert (
            piped_platform.scheduler.simulated_clock
            == barrier_platform.scheduler.simulated_clock
        )

    def test_order_without_limit_drains_and_matches_barrier(self):
        sql = (
            "SELECT name, price FROM items "
            "WHERE CROWDFILTER(name, 'is it in stock?') ORDER BY price DESC"
        )
        expected = make_session(pipeline=False).query(sql)
        got = make_session(pipeline=True).query(sql)
        assert got.rows == expected.rows
        assert got.stats == expected.stats

    def test_pipelined_replay_is_bit_identical(self):
        first = make_session(pipeline=True).query(FILTER_SQL)
        second = make_session(pipeline=True).query(FILTER_SQL)
        assert first.rows == second.rows
        assert first.stats == second.stats


class TestEarlyTermination:
    """TOP-K cancels pending HITs upstream; accounting stays consistent."""

    def test_topk_cancels_pending_hits(self):
        barrier = make_session(pipeline=False, accuracy=1.0)
        piped = make_session(pipeline=True, accuracy=1.0)
        expected = barrier.query(TOPK_SQL)
        got = piped.query(TOPK_SQL)
        assert got.rows == expected.rows
        assert expected.stats.tasks_cancelled == 0
        assert got.stats.tasks_cancelled > 0
        assert got.stats.cost_avoided > 0
        assert (
            piped.platform.stats.tasks_published
            < barrier.platform.stats.tasks_published
        )
        # ExecutionStats and PlatformStats agree on what was cancelled.
        assert piped.platform.stats.tasks_cancelled == got.stats.tasks_cancelled
        assert piped.platform.stats.cancel_cost_refunded == pytest.approx(
            got.stats.cost_avoided
        )

    def test_cancelled_spend_never_double_counted(self):
        # Same task set, same per-task price: the pipelined spend plus the
        # avoided spend must reconstruct the barrier spend exactly.
        barrier = make_session(pipeline=False, accuracy=1.0)
        piped = make_session(pipeline=True, accuracy=1.0)
        barrier.query(TOPK_SQL)
        result = piped.query(TOPK_SQL)
        assert piped.platform.stats.cost_spent + result.stats.cost_avoided == (
            pytest.approx(barrier.platform.stats.cost_spent)
        )
        assert result.stats.crowd_cost == pytest.approx(
            piped.platform.stats.cost_spent
        )

    def test_limit_zero_publishes_nothing(self):
        expected, _ = run_plan(topk_plan(limit=0), pipelined=False, accuracy=1.0)
        got, platform = run_plan(topk_plan(limit=0), pipelined=True, accuracy=1.0)
        assert expected.rows == []
        assert got.rows == []
        assert platform.stats.tasks_published == 0
        assert got.stats.tasks_cancelled == N_ITEMS
        assert got.stats.crowd_cost == 0.0

    def test_batch_summary_reports_cancellations(self):
        piped = make_session(pipeline=True, accuracy=1.0)
        piped.query(TOPK_SQL)
        summary = piped.platform.stats.batch_summary()
        assert "HITs cancelled" in summary


class TestPlanOnDemand:
    """A streamed LIMIT plans a candidate only when a wave needs it."""

    def test_topk_plans_no_further_than_one_wave_past_its_frontier(self):
        asked = []

        def filter_fn(value, _question):
            asked.append(value)
            return int(str(value).split()[-1]) % 3 == 0

        session = CrowdSQLSession(
            database=make_database(),
            platform=make_platform(accuracy=1.0),
            oracle=CrowdOracle(filter_fn=filter_fn),
            redundancy=3,
            pipeline=True,
        )
        result = session.query(TOPK_SQL)
        ordered = session.query("SELECT name FROM items ORDER BY price DESC").column("name")
        # The frontier ends just past the row that completed the LIMIT.
        frontier = ordered.index(result.rows[-1]["name"]) + 1
        wave = session.platform.scheduler.config.batch_size
        assert len(result.rows) == 5
        assert frontier <= len(asked) <= frontier + wave
        assert asked == ordered[: len(asked)]
        assert result.stats.crowd_questions == len(asked)
        assert result.stats.tasks_cancelled == N_ITEMS - len(asked)


class TestCachedHitsFirst:
    """Cache hits are decided as the stream plans them, so a LIMIT its
    cached candidates already satisfy never plans a miss."""

    SQL = "SELECT k, price FROM t WHERE CROWDFILTER(k, 'q?') ORDER BY price LIMIT 10"

    @staticmethod
    def _session(pipeline: bool, cache: AnswerCache) -> CrowdSQLSession:
        database = Database()
        database.create_table(
            "t",
            SchemaBuilder().string("k").integer("price").build(),
            rows=[{"k": f"key {i}", "price": i} for i in range(200)],
        )
        platform = make_platform(accuracy=1.0)
        platform.attach_cache(cache)
        return CrowdSQLSession(
            database=database,
            platform=platform,
            oracle=CrowdOracle(filter_fn=lambda value, _q: int(value.split()[-1]) % 2 == 0),
            redundancy=3,
            pipeline=pipeline,
        )

    def test_cached_cheapest_rows_cancel_every_miss(self):
        cache = AnswerCache()
        warm = self._session(pipeline=False, cache=cache)
        warm.query("SELECT k FROM t WHERE price < 20 AND CROWDFILTER(k, 'q?')")
        assert len(cache) == 20
        expected = self._session(pipeline=False, cache=AnswerCache()).query(self.SQL)
        piped = self._session(pipeline=True, cache=cache)
        got = piped.query(self.SQL)
        assert got.rows == expected.rows
        assert [r["price"] for r in got.rows] == list(range(0, 20, 2))
        # The first 19 cached candidates decide the LIMIT: nothing is bought,
        # and the 20th, past the frontier, is never planned.
        assert piped.platform.stats.cost_spent == 0.0
        assert piped.platform.stats.tasks_published == 0
        assert got.stats.tasks_cancelled == 181
        assert got.stats.crowd_questions == 19

    def test_hits_are_delivered_before_the_first_wave(self):
        cache = AnswerCache()
        platform = make_platform(accuracy=1.0)
        platform.attach_cache(cache)
        tasks = TestSchedulerHooks._tasks(3)
        platform.scheduler.run(tasks[:2], redundancy=3)
        fresh = TestSchedulerHooks._tasks(3)
        delivered = []

        def on_batch(batch, run):
            delivered.append([(t.task_id, len(run.answers[t.task_id])) for t in batch])

        platform.scheduler.run(fresh, redundancy=3, on_batch=on_batch)
        assert delivered == [
            [("seam-t0", 3), ("seam-t1", 3)],
            [("seam-t2", 3)],
        ]


class TestCancellationAccounting:
    """Cancelled tasks leave no trace in the cache and zero the gauge."""

    def test_cancelled_tasks_do_not_poison_cache(self):
        cache = AnswerCache()
        piped = make_session(pipeline=True, accuracy=1.0)
        piped.platform.attach_cache(cache)
        result = piped.query(TOPK_SQL)
        # One cache entry per *published* question — cancelled HITs never
        # produce answers, so they must not be stored.
        assert len(cache) == piped.platform.stats.tasks_published
        assert len(cache) < N_ITEMS
        # A barrier run over the same cache reaches the same rows: a
        # poisoned (empty-answer) entry would flip its verdict to False.
        barrier = make_session(pipeline=False, accuracy=1.0)
        barrier.platform.attach_cache(cache)
        assert barrier.query(TOPK_SQL).rows == result.rows

    def test_in_flight_gauge_returns_to_zero(self):
        registry = MetricsRegistry(enabled=True)
        piped = make_session(pipeline=True, metrics=registry)
        piped.query(TOPK_SQL)
        # Reading through registry.gauge() would create a missing series at
        # 0.0, so first check the stream set it.
        key = series_key("operators.in_flight", normalize_labels({"operator": "crowd_filter"}))
        assert key in registry.gauges
        assert registry.gauges[key].value == 0.0

    def test_cancellation_counter_labeled_by_reason(self):
        """Cancelled candidates are counted once, in ``batch.tasks_cancelled``;
        the ``batch.cancel`` trace annotations carry their reason and add up
        to the counter (a candidate never planned has no task id)."""
        registry = MetricsRegistry(enabled=True)
        piped = make_session(pipeline=True, accuracy=1.0, metrics=registry)
        sink = MemorySink()
        piped.platform.tracer = Tracer(sink)
        piped.query(TOPK_SQL)
        cancelled = registry.counter("batch.tasks_cancelled").value
        assert cancelled > 0
        tags = [s["tags"] for s in sink.spans if s["name"] == "batch.cancel"]
        assert {t["reason"] for t in tags} == {"early_termination"}
        assert sum(t["count"] for t in tags) == cancelled
        exposition = render_prometheus(registry)
        assert "batch_tasks_cancelled_total" in exposition
        assert "operators_in_flight" in exposition

    def test_concurrent_bookings_lose_no_update(self):
        """Tenant sessions book their cancellations from their own threads;
        the charge lock keeps every one."""
        platform = make_platform()
        threads, calls = 8, 500

        def book() -> None:
            for _ in range(calls):
                platform.book_cancelled(2, TaskType.SINGLE_CHOICE, 3, "early_termination")

        workers = [threading.Thread(target=book) for _ in range(threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert platform.stats.tasks_cancelled == threads * calls * 2
        assert platform.stats.cancel_cost_refunded == pytest.approx(threads * calls * 2 * 0.03)

    def test_statement_span_surfaces_cancellations(self):
        piped = make_session(pipeline=True, accuracy=1.0)
        sink = MemorySink()
        piped.platform.tracer = Tracer(sink)
        result = piped.query(TOPK_SQL)
        (statement,) = [s for s in sink.spans if s["name"] == "statement"]
        assert statement["tags"]["cancelled"] == result.stats.tasks_cancelled > 0
        assert statement["tags"]["cancel_refunded"] == pytest.approx(
            result.stats.cost_avoided
        )
        (stream,) = [s for s in sink.spans if s["name"] == "operator.crowd_filter"]
        assert stream["tags"]["cost"] == pytest.approx(statement["tags"]["cost"])


class TestCheckpointResume:
    """A run killed between statements resumes bit-identically."""

    SCRIPT_HEAD = "SELECT name FROM items WHERE CROWDFILTER(name, 'first pass?')"
    SCRIPT_TAIL = (
        "SELECT name, price FROM items "
        "WHERE price > 10 AND CROWDFILTER(name, 'second pass?')"
    )

    def test_killed_mid_script_resumes_bit_identically(self, tmp_path):
        seed = 11
        reference = make_session(pipeline=True, seed=seed)
        results = reference.execute(f"{self.SCRIPT_HEAD}; {self.SCRIPT_TAIL}")

        # Interrupted run: statement 1 lands, then the process dies. The
        # checkpoint (statement granularity) holds the RNG/bookkeeping
        # state the streamed statement 2 must replay from.
        interrupted = make_session(pipeline=True, seed=seed)
        head = interrupted.execute(self.SCRIPT_HEAD)
        assert head[0].rows == results[0].rows
        Checkpoint.capture(interrupted.platform).save(tmp_path)
        save_database(interrupted.database, tmp_path / "db")

        resumed_platform = make_platform(seed=seed)
        resumed = CrowdSQLSession(
            database=load_database(tmp_path / "db"),
            platform=resumed_platform,
            oracle=make_oracle(),
            redundancy=3,
            pipeline=True,
        )
        Checkpoint.load(tmp_path).restore(resumed_platform)
        tail = resumed.execute(self.SCRIPT_TAIL)
        assert tail[0].rows == results[1].rows
        assert tail[0].stats == results[1].stats


class TestFallback:
    """Unsupported shapes run through the inherited barrier path unchanged."""

    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT COUNT(*) FROM items WHERE CROWDFILTER(name, 'in stock?')",
            "SELECT name FROM items "
            "WHERE CROWDFILTER(name, 'a?') AND CROWDFILTER(name, 'b?')",
            "SELECT name FROM items WHERE price > 80 CROWDORDER BY price",
            "SELECT name FROM items WHERE price > 50",
        ],
    )
    def test_fallback_shapes_match_barrier(self, sql):
        expected = make_session(pipeline=False).query(sql)
        got = make_session(pipeline=True).query(sql)
        assert got.rows == expected.rows
        assert got.stats == expected.stats

    def test_compiler_rejects_non_streamable_shapes(self):
        executor = StreamingExecutor(
            make_database(), make_platform(), redundancy=3, oracle=make_oracle()
        )
        # Crowd condition in the join itself.
        crowd_join = JoinNode(
            CrowdFilterNode(ScanNode("items"), crowd_filter()),
            ScanNode("labels"),
            CrowdPredicate("equal", (col("cat"), col("ref"))),
        )
        # Two crowd conjuncts keep the barrier's short-circuit order.
        two_conjuncts = CrowdFilterNode(
            ScanNode("items"), And(crowd_filter("a?"), crowd_filter("b?"))
        )
        # Machine-only predicate: nothing to stream.
        machine = CrowdFilterNode(
            ScanNode("items"), Comparison(">", col("price"), lit(10))
        )
        # Without a LIMIT nothing can cancel, so the barrier buys the same
        # answers; a join, machine or crowd, is never streamed.
        bare = CrowdFilterNode(ScanNode("items"), crowd_filter())
        ordered = OrderNode(
            CrowdFilterNode(ScanNode("items"), crowd_filter()), (("price", False),)
        )
        for root in (
            LimitNode(crowd_join, 5),
            LimitNode(two_conjuncts, 5),
            LimitNode(machine, 5),
            bare,
            ordered,
            join_plan().root,
            LimitNode(join_plan().root, 5),
        ):
            with pytest.raises(_Unsupported):
                executor._compile(root)
        assert executor._compile(topk_plan().root).limit == 5
        bare_limit = LimitNode(CrowdFilterNode(ScanNode("items"), crowd_filter()), 5)
        assert executor._compile(bare_limit).limit == 5


class TestUnknownColumnsBeforePurchase:
    """A statement that names a column its input lacks fails before any
    crowd question is bought, with the error the run itself would raise."""

    @pytest.mark.parametrize("pipeline", [False, True])
    @pytest.mark.parametrize(
        "sql, error, message",
        [
            (
                "SELECT name FROM items WHERE CROWDFILTER(name, 'q?') ORDER BY nosuch",
                ExecutionError,
                "ORDER BY unknown column 'nosuch'",
            ),
            (
                "SELECT nosuch FROM items WHERE CROWDFILTER(name, 'q?')",
                UnknownColumnError,
                "no column 'nosuch'; available: id, name, cat, price",
            ),
            (
                "SELECT COUNT(nosuch) FROM items WHERE CROWDFILTER(name, 'q?')",
                ExecutionError,
                "aggregate over unknown column 'nosuch'",
            ),
            (
                "SELECT COUNT(*) FROM items WHERE CROWDFILTER(name, 'q?') GROUP BY nosuch",
                ExecutionError,
                "GROUP BY unknown column 'nosuch'",
            ),
            (
                "SELECT name FROM items WHERE CROWDFILTER(name, 'q?') CROWDORDER BY nosuch",
                ExecutionError,
                "CROWDORDER BY unknown column 'nosuch'",
            ),
        ],
    )
    def test_rejected_before_any_purchase(self, sql, error, message, pipeline):
        session = make_session(pipeline=pipeline)
        with pytest.raises(error) as raised:
            session.query(sql)
        assert raised.type is error
        assert str(raised.value) == message
        assert session.platform.stats.cost_spent == 0.0
        assert session.platform.stats.tasks_published == 0


class TestWiring:
    """The pipeline knob defaults off and reaches the session everywhere."""

    def test_session_default_is_barrier(self):
        assert CrowdSQLSession().pipeline is False

    def test_engine_config_reaches_session(self):
        from repro.core.config import EngineConfig
        from repro.core.engine import CrowdEngine

        assert EngineConfig().pipeline is False
        engine = CrowdEngine(EngineConfig(seed=3, pipeline=True))
        assert engine._session.pipeline is True

    def test_cli_pipeline_flag_reaches_the_engine_session(self):
        from repro.cli import build_parser, engine_config
        from repro.core.engine import CrowdEngine

        def session(*argv):
            config = engine_config(build_parser().parse_args([*argv, "demo"]))
            return CrowdEngine(config).session

        assert session("--pipeline").pipeline is True
        assert session().pipeline is False

    def test_cli_run_accepts_pipeline_flag(self, tmp_path):
        from repro.cli import main

        script = tmp_path / "q.sql"
        script.write_text(
            "CREATE TABLE t (a STRING); INSERT INTO t VALUES ('x'); "
            "SELECT a FROM t;",
            encoding="utf-8",
        )
        assert main(["--pipeline", "run", str(script)]) == 0


class TestSchedulerHooks:
    """Unit coverage for the on_batch/more hooks on BatchScheduler.run."""

    @staticmethod
    def _tasks(n: int) -> list:
        # Explicit ids: answers are keyed by task_id, and the bit-identical
        # comparison below spans two separately built task lists.
        return [
            Task(
                TaskType.SINGLE_CHOICE,
                question=f"seam q{i}",
                options=("yes", "no"),
                truth="yes",
                task_id=f"seam-t{i}",
            )
            for i in range(n)
        ]

    @staticmethod
    def _pull(tasks: list, listed: list):
        """A ``more`` hook that lists the next of *tasks* on *listed* per call."""

        def more() -> None:
            if len(listed) < len(tasks):
                listed.append(tasks[len(listed)])

        return more

    def test_on_batch_fires_per_dispatched_batch(self):
        platform = make_platform()
        sizes = []
        platform.scheduler.run(
            self._tasks(34),
            redundancy=2,
            on_batch=lambda batch, run: sizes.append(len(batch)),
        )
        assert sizes == [16, 16, 2]

    def test_noop_hooks_leave_run_bit_identical(self):
        """Listing one task per ``more`` call gives the waves, answers, spend
        and clock of the complete list."""
        plain = make_platform()
        hooked = make_platform()
        baseline = plain.scheduler.run(self._tasks(40), redundancy=3)
        tasks = self._tasks(40)
        listed = tasks[:1]
        sizes = []
        observed = hooked.scheduler.run(
            listed,
            redundancy=3,
            on_batch=lambda batch, run: sizes.append(len(batch)),
            more=self._pull(tasks, listed),
        )
        assert listed == tasks
        assert sizes == [16, 16, 8]

        # Worker ids are allocated globally across pools; compare the run
        # dynamics (values, timings, payments) rather than the w-names.
        def fingerprint(result):
            return {
                tid: [(a.value, a.submitted_at, a.duration, a.reward_paid) for a in answers]
                for tid, answers in result.answers.items()
            }

        assert fingerprint(observed) == fingerprint(baseline)
        assert plain.stats.cost_spent == hooked.stats.cost_spent
        assert plain.scheduler.simulated_clock == hooked.scheduler.simulated_clock

    def test_more_is_pulled_only_for_a_short_wave(self):
        """``more`` runs while fewer than ``batch_size`` misses are pending,
        and a call that lists nothing ends the taking."""
        platform = make_platform()
        tasks = self._tasks(20)
        listed: list = []
        pulls = []
        pull = self._pull(tasks, listed)

        def more() -> None:
            pulls.append(len(listed))
            if len(listed) < 18:
                pull()

        result = platform.scheduler.run(listed, redundancy=2, more=more)
        # 16 pulls fill the first wave, two more and an empty one the last.
        assert pulls == list(range(19))
        assert sorted(result.answers) == sorted(t.task_id for t in tasks[:18])
        assert platform.stats.tasks_published == 18

    def test_pulled_hits_are_delivered_as_they_are_found(self):
        cache = AnswerCache()
        platform = make_platform(accuracy=1.0)
        platform.attach_cache(cache)
        platform.scheduler.run(self._tasks(3)[1:], redundancy=3)
        tasks = self._tasks(4)
        listed = tasks[:1]
        delivered = []

        def on_batch(batch, run):
            delivered.append([(t.task_id, len(run.answers[t.task_id])) for t in batch])

        platform.scheduler.run(
            listed, redundancy=3, on_batch=on_batch, more=self._pull(tasks, listed)
        )
        # seam-t1 and seam-t2 are served as they are taken; the misses
        # seam-t0 and seam-t3 make one wave after the last pull.
        assert delivered == [
            [("seam-t1", 3)],
            [("seam-t2", 3)],
            [("seam-t0", 3), ("seam-t3", 3)],
        ]
