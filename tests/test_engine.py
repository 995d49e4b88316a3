"""Unit tests for the CrowdEngine facade, EngineConfig, and Requester."""

import math
from dataclasses import replace

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import CrowdEngine
from repro.core.requester import Requester
from repro.deco import (
    AnchorFetchRule,
    ConceptualRelation,
    DependentFetchRule,
    single_column_group,
)
from repro.errors import BudgetExceededError, ConfigurationError, RetryExhaustedError
from repro.lang.executor import CrowdOracle
from repro.latency.rounds import RoundScheduler
from repro.obs import load_spans
from repro.operators.collect import CrowdCollect, bind_zipf_knowledge
from repro.operators.findfixverify import proofreading_dataset
from repro.operators.join import crossing_join
from repro.platform.batch import BatchConfig
from repro.platform.platform import SimulatedPlatform
from repro.quality.truth import DawidSkene
from repro.recovery.breakers import DeadlineBreaker
from repro.workers.models import CollectorModel
from repro.workers.pool import WorkerPool
from repro.workers.worker import Worker

from conftest import abandoning_engine, make_choice_tasks


class TestEngineConfig:
    def test_defaults_valid(self):
        config = EngineConfig()
        assert config.redundancy == 3
        assert math.isinf(config.budget)

    def test_invalid_redundancy(self):
        with pytest.raises(ConfigurationError):
            EngineConfig(redundancy=0)

    def test_invalid_inference(self):
        with pytest.raises(ConfigurationError):
            EngineConfig(inference="nope")

    @pytest.mark.parametrize("budget", [-1.0, 0.0, float("nan")])
    def test_budget_must_be_positive(self, budget):
        # A NaN budget would pass every `spent + amount > budget` check.
        with pytest.raises(ConfigurationError, match="budget must be > 0"):
            EngineConfig(budget=budget)

    def test_invalid_accuracy_range(self):
        with pytest.raises(ConfigurationError):
            EngineConfig(pool_accuracy_range=(0.9, 0.5))

    def test_invalid_seed(self):
        with pytest.raises(ConfigurationError, match="got -1"):
            EngineConfig(seed=-1)

    def test_make_inference(self):
        assert isinstance(EngineConfig(inference="ds").make_inference(), DawidSkene)


class TestEngineFacade:
    @pytest.fixture
    def engine(self):
        return CrowdEngine(EngineConfig(seed=5, pool_size=20, pool_accuracy_range=(0.85, 0.95)))

    def test_sql_and_query(self, engine):
        engine.sql("CREATE TABLE t (a STRING, n INTEGER); INSERT INTO t VALUES ('x', 1), ('y', 2)")
        result = engine.query("SELECT a FROM t WHERE n > 1")
        assert [r["a"] for r in result.rows] == ["y"]

    def test_table_access(self, engine):
        engine.sql("CREATE TABLE t (a STRING)")
        assert engine.table("t").name == "t"

    def test_filter(self, engine):
        result = engine.filter(list(range(12)), "even?", lambda i: i % 2 == 0)
        assert set(result.kept) <= set(range(0, 12, 2)) | {1, 3, 5, 7, 9, 11}
        assert engine.spent > 0

    def test_filter_fixed(self, engine):
        result = engine.filter(
            list(range(6)), "even?", lambda i: i % 2 == 0, adaptive=False
        )
        assert result.questions_asked == 18  # 6 items x redundancy 3

    def test_join(self, engine):
        records = ["swift falcon 1", "falcon swift 1", "amber orchid 9"]
        result = engine.join(records, lambda a, b: set(a.split()) == set(b.split()))
        assert (0, 1) in result.matched_pairs

    def test_sort_strategies(self, engine):
        items = [f"i{k}" for k in range(6)]
        score = lambda it: float(it[1:])
        for strategy in ("all_pairs", "merge", "rating", "hybrid"):
            result = engine.sort(items, score, strategy=strategy)
            assert sorted(result.order) == list(range(6))

    def test_sort_unknown_strategy(self, engine):
        with pytest.raises(ConfigurationError):
            engine.sort(["a", "b"], lambda x: 0.0, strategy="bogosort")

    def test_max_and_topk(self, engine):
        items = [f"i{k}" for k in range(8)]
        score = lambda it: float(it[1:])
        assert engine.max(items, score).winners[0] == 7
        top = engine.topk(items, score, k=2)
        assert len(top.winners) == 2

    def test_count(self, engine):
        items = list(range(500))
        result = engine.count(items, "under 100?", lambda i: i < 100, sample_size=100)
        assert 0 <= result.value <= 500

    def test_collect_stops_at_coverage(self):
        def collector_engine() -> CrowdEngine:
            pool = WorkerPool([Worker(model=CollectorModel()) for _ in range(10)], seed=2)
            bind_zipf_knowledge(
                pool, [f"shop {i}" for i in range(30)], knowledge_size=8, seed=3
            )
            return CrowdEngine(EngineConfig(seed=4), pool=pool)

        facade = collector_engine()
        got = facade.collect("Name a shop.", 400, stop_at_coverage=0.9)
        direct = collector_engine()
        want = CrowdCollect(direct.platform, "Name a shop.").run(400, stop_at_coverage=0.9)
        assert got.queries_issued == want.queries_issued < 400
        assert got.items == want.items
        assert facade.spent == direct.spent

    def test_fill_via_engine(self, engine):
        engine.sql(
            "CREATE TABLE c (k STRING, v STRING CROWD);"
            "INSERT INTO c (k) VALUES ('x'), ('y')"
        )
        result = engine.fill("c", truth_fn=lambda row, col: row["k"] + "!")
        assert result.filled_cells == 2
        assert engine.table("c").row(1)["v"] == "x!"

    def test_categorize(self, engine):
        result = engine.categorize(
            ["dog", "cat", "tuna"],
            ("mammal", "fish"),
            truth_fn=lambda item: "fish" if item == "tuna" else "mammal",
        )
        assert len(result.labels) == 3

    def test_budget_enforced(self):
        engine = CrowdEngine(EngineConfig(seed=9, budget=0.05))
        with pytest.raises(BudgetExceededError):
            engine.filter(list(range(50)), "q", lambda i: True, adaptive=False)

    def test_remaining_budget(self):
        engine = CrowdEngine(EngineConfig(seed=9, budget=1.0))
        engine.filter([1, 2], "q", lambda i: True, adaptive=False)
        assert engine.remaining_budget == pytest.approx(1.0 - engine.spent)

    def test_oracle_passthrough(self):
        oracle = CrowdOracle(filter_fn=lambda v, q: True)
        engine = CrowdEngine(EngineConfig(seed=3), oracle=oracle)
        engine.sql("CREATE TABLE t (a STRING); INSERT INTO t VALUES ('x')")
        result = engine.query("SELECT a FROM t WHERE CROWDFILTER(a, 'always yes?')")
        assert len(result) == 1


class TestRequester:
    @pytest.fixture
    def requester(self):
        platform = SimulatedPlatform(WorkerPool.uniform(15, 0.9, seed=7), seed=8)
        return Requester(platform)

    def test_submit_job(self, requester):
        tasks = make_choice_tasks(20, seed=1)
        report = requester.submit("labels", tasks, redundancy=3)
        assert report.tasks == 20
        assert len(report.truths) == 20
        assert report.cost == pytest.approx(0.6)
        assert report.makespan is None
        assert 0.0 <= report.mean_confidence <= 1.0

    def test_duplicate_job_rejected(self, requester):
        requester.submit("j", make_choice_tasks(2, seed=2))
        with pytest.raises(ConfigurationError):
            requester.submit("j", make_choice_tasks(2, seed=3))

    def test_empty_job_rejected(self, requester):
        with pytest.raises(ConfigurationError):
            requester.submit("empty", [])

    def test_with_timeline_records_makespan(self, requester):
        report = requester.submit(
            "timed", make_choice_tasks(10, seed=4), redundancy=2, with_timeline=True
        )
        assert report.makespan is not None and report.makespan > 0
        assert all(len(v) == 2 for v in report.answers.values())

    def test_total_spent_accumulates(self, requester):
        requester.submit("a", make_choice_tasks(5, seed=5), redundancy=2)
        requester.submit("b", make_choice_tasks(5, seed=6), redundancy=2)
        assert requester.total_spent == pytest.approx(0.2)

    def test_job_lookup(self, requester):
        requester.submit("x", make_choice_tasks(2, seed=7))
        assert requester.job("x").name == "x"
        with pytest.raises(ConfigurationError):
            requester.job("ghost")

    def test_custom_inference_per_job(self, requester):
        report = requester.submit(
            "ds", make_choice_tasks(10, seed=8), redundancy=5, inference=DawidSkene()
        )
        assert report.inference.iterations >= 1


class TestEngineExtendedOperators:
    @pytest.fixture
    def engine(self):
        return CrowdEngine(
            EngineConfig(seed=55, pool_size=20, pool_accuracy_range=(0.92, 0.99))
        )

    def test_skyline_facade(self, engine):
        scores = {"a": (0.1, 0.1), "b": (0.9, 0.9), "c": (0.05, 0.95)}
        result = engine.skyline(
            list(scores),
            [lambda it: scores[it][0], lambda it: scores[it][1]],
        )
        assert 1 in result.skyline  # 'b' dominates 'a'

    def test_match_schemas_facade(self, engine):
        result = engine.match_schemas(
            ("cust_name",), ("customer", "region"), truth={"cust_name": "customer"},
            prune_below=0.0,
        )
        assert result.correspondences.get("cust_name") == "customer"

    def test_plan_facade(self, engine):
        graph = {"s": ["a", "b"], "a": ["t"], "b": ["t"], "t": []}
        score = {("s", "a"): 0.2, ("s", "b"): 0.9, ("a", "t"): 0.5, ("b", "t"): 0.5}
        result = engine.plan(graph, lambda u, v: score[(u, v)], "s", steps=2)
        assert result.path[0] == "s" and len(result.path) == 3

    def test_plan_strategy_validated(self, engine):
        with pytest.raises(ConfigurationError):
            engine.plan({}, lambda u, v: 0.0, "s", steps=1, strategy="magic")

    def test_find_fix_verify_facade(self, engine):
        from repro.operators.findfixverify import proofreading_dataset

        documents = proofreading_dataset(3, seed=9)
        result = engine.find_fix_verify(documents, find_redundancy=3)
        assert len(result.corrected) == 3


class TestEngineRobustness:
    def test_failure_policy_flows_into_scheduler(self):
        engine = CrowdEngine(EngineConfig(failure_policy="degrade", seed=1))
        assert engine.scheduler.config.failure_policy == "degrade"

    def test_robustness_knobs_validated(self):
        with pytest.raises(ConfigurationError):
            EngineConfig(failure_policy="explode")
        with pytest.raises(ConfigurationError):
            EngineConfig(fault_plan="")

    def test_fault_plan_attached_from_config(self, tmp_path):
        from repro.faults import random_plan

        path = tmp_path / "plan.json"
        path.write_text(random_plan(3).to_json(), encoding="utf-8")
        engine = CrowdEngine(EngineConfig(fault_plan=str(path), seed=3))
        assert engine.platform.faults is not None
        assert engine.platform.faults.plan.seed == random_plan(3).seed

    def test_gather_returns_degraded_result(self):
        engine = abandoning_engine(
            EngineConfig(failure_policy="degrade", seed=4, redundancy=2), abandon_rate=1.0
        )
        tasks = make_choice_tasks(4)
        result = engine.gather(tasks)
        result.coverage.validate()
        assert result.coverage.requested == 4
        assert result.coverage.failed == 4
        assert result.degraded

    def test_gather_complete_run_has_confidences(self):
        engine = CrowdEngine(EngineConfig(seed=5, redundancy=3))
        tasks = make_choice_tasks(4)
        result = engine.gather(tasks)
        assert result.coverage.complete
        assert set(result.truths) == {t.task_id for t in tasks}
        assert all(0.0 <= c <= 1.0 for c in result.confidences.values())

    def test_checkpoint_restore_round_trip(self, tmp_path):
        engine = CrowdEngine(EngineConfig(seed=6, redundancy=3))
        engine.gather(make_choice_tasks(4))
        engine.checkpoint(str(tmp_path))

        twin = CrowdEngine(EngineConfig(seed=6, redundancy=3))
        twin.restore_checkpoint(str(tmp_path))
        assert len(twin.platform.answers) == len(engine.platform.answers)
        assert twin.spent == pytest.approx(engine.spent)

    def test_checkpoint_carries_the_tables(self, tmp_path):
        engine = CrowdEngine(EngineConfig(seed=6, redundancy=3))
        engine.sql("CREATE TABLE a (x STRING); INSERT INTO a VALUES ('kept')")
        engine.gather(make_choice_tasks(4))
        engine.checkpoint(str(tmp_path))

        twin = CrowdEngine(EngineConfig(seed=6, redundancy=3))
        twin.restore_checkpoint(str(tmp_path))
        assert twin.query("SELECT x FROM a").rows == [{"x": "kept"}]
        assert twin.table("a") is twin.session.database.table("a")
        assert twin.spent == pytest.approx(engine.spent)

    def test_checkpoint_round_trips_progress_markers(self, tmp_path):
        engine = CrowdEngine(EngineConfig(seed=6))
        engine.checkpoint(str(tmp_path / "marked"), extra={"statements_done": 2})
        engine.checkpoint(str(tmp_path / "plain"))
        twin = CrowdEngine(EngineConfig(seed=6))
        assert twin.restore_checkpoint(str(tmp_path / "marked")) == {"statements_done": 2}
        assert twin.restore_checkpoint(str(tmp_path / "plain")) == {}

    def test_checkpoint_without_tables_is_a_checkpoint_error(self, tmp_path):
        from repro.errors import CheckpointError
        from repro.recovery.checkpoint import Checkpoint

        engine = CrowdEngine(EngineConfig(seed=6))
        Checkpoint.capture(engine.platform).save(tmp_path)
        with pytest.raises(CheckpointError, match="cannot read checkpoint tables"):
            CrowdEngine(EngineConfig(seed=6)).restore_checkpoint(str(tmp_path))

    def test_unwritable_cache_path_fails_before_crowd_work(self, tmp_path):
        from repro.errors import CacheError

        blocker = tmp_path / "file.txt"
        blocker.write_text("not a directory")
        with pytest.raises(CacheError, match="cannot write answer cache"):
            CrowdEngine(EngineConfig(cache_path=str(blocker / "answers.jsonl")))

    def test_close_finishes_every_step_when_one_fails(self, tmp_path):
        from repro.errors import CacheError

        spill_dir = tmp_path / "spill"
        spill_dir.mkdir()
        trace = tmp_path / "run.jsonl"
        engine = CrowdEngine(
            EngineConfig(
                seed=3,
                cache_path=str(spill_dir / "answers.jsonl"),
                trace_path=str(trace),
            )
        )
        engine.gather(make_choice_tasks(4))
        # A file where the spill directory was: the cache spill now fails.
        (spill_dir / "answers.jsonl").unlink()
        spill_dir.rmdir()
        spill_dir.write_text("not a directory")
        with pytest.raises(CacheError, match="cannot write answer cache"):
            engine.close()
        # The failed spill skipped none of the later steps: the trace closed.
        assert [s["name"] for s in load_spans(str(trace))][-1] == "engine"
        engine.close()  # already closed: nothing left to do

    def test_engines_keep_separate_ledgers(self):
        config = EngineConfig(seed=2, metrics_enabled=True)
        first = CrowdEngine(config)
        first.gather(make_choice_tasks(4))
        spent = first.spent
        assert spent > 0
        second = CrowdEngine(replace(config, budget=spent))
        assert second.metrics is not first.metrics
        assert (second.spent, second.stats.answers_collected) == (0, 0)
        second.gather(make_choice_tasks(4))  # the whole budget is its own
        assert second.spent == first.spent == spent
        first.close()
        second.close()


# Operators that buy answers through the batch scheduler, each run on a
# small input that asks the crowd, through the engine facade where one exists.
_COLLECTING_OPERATORS = (
    "categorize", "count", "fill", "match_schemas", "plan", "find_fix_verify",
    "rating_sort", "crossing_join", "adaptive_filter", "anchor_fetch",
    "dependent_fetch", "round_scheduler",
)
_PLAN_GRAPH = {"s": ["a", "b"], "a": ["t"], "b": ["t"], "t": []}


def _relation():
    relation = ConceptualRelation("r", ("name",), [single_column_group("cuisine")])
    relation.add_anchor(name="r0")
    return relation


def _run_operator(engine, name):
    if name == "categorize":
        return engine.categorize(
            list(range(12)), ("a", "b", "c"), truth_fn=lambda i: "abc"[i % 3]
        )
    if name == "count":
        return engine.count(list(range(40)), "even?", lambda i: i % 2 == 0, sample_size=10)
    if name == "fill":
        engine.sql(
            "CREATE TABLE c (k STRING, v STRING CROWD);"
            "INSERT INTO c (k) VALUES ('x'), ('y')"
        )
        return engine.fill("c", truth_fn=lambda row, col: row["k"] + "!")
    if name == "match_schemas":
        return engine.match_schemas(
            ("cust_name",), ("customer", "region"), truth={"cust_name": "customer"},
            prune_below=0.0,
        )
    if name == "plan":
        return engine.plan(_PLAN_GRAPH, lambda u, v: 1.0 if v == "b" else 0.5, "s", steps=2)
    if name == "rating_sort":
        return engine.sort(list(range(8)), score_fn=float, strategy="rating")
    if name == "crossing_join":
        return crossing_join(
            engine.platform, ["ab x", "cd y"], ["ab x", "ef z"], truth_fn=lambda a, b: a == b
        )
    if name == "adaptive_filter":
        return engine.filter(list(range(10)), "even?", lambda i: i % 2 == 0)
    if name == "anchor_fetch":
        relation = _relation()
        return relation, AnchorFetchRule("Name one.").fetch(relation, engine.platform, 4)
    if name == "dependent_fetch":
        relation = _relation()
        rule = DependentFetchRule("cuisine", truth_fn=lambda anchor, col: "thai")
        return relation, rule.fetch(relation, engine.platform, {"name": "r0"}, times=4)
    if name == "round_scheduler":
        return RoundScheduler(engine.platform, redundancy=2).run(
            make_choice_tasks(4, seed=1),
            lambda answers, index: make_choice_tasks(2, seed=index) if index < 2 else [],
        )
    assert name == "find_fix_verify"
    return engine.find_fix_verify(proofreading_dataset(2, seed=9))


def _assert_no_verdicts(engine, name, result):
    """What each operator returns when none of its questions got an answer."""
    if name == "categorize":
        assert result.labels == {} and result.groups == {}
    elif name == "count":
        assert result.estimate.sample_size == 0 and math.isnan(result.value)
    elif name == "fill":
        assert result.filled_cells == 0
        assert len(engine.table("c").cnull_cells()) == 2
    elif name == "match_schemas":
        assert result.correspondences == {} and result.confirmed_pairs == []
    elif name == "plan":
        assert result.path == ["s"]
    elif name == "rating_sort":
        # Unrated items rank after every rated one, in input order.
        assert result.ratings == {} and result.order == list(range(8))
        assert result.answers_bought == 0
    elif name == "crossing_join":
        assert result.matched_pairs == set() and result.questions_asked == 4
        assert result.answers_bought == 0
    elif name == "adaptive_filter":
        # Every item closes on no votes and is not kept.
        assert result.kept == [] and result.questions_asked == 0
        assert all(got == [] for got in result.answers_by_item.values())
    elif name == "anchor_fetch":
        relation, added = result
        assert added == 0 and relation.anchor_keys == [("r0",)]
    elif name == "dependent_fetch":
        relation, fetched = result
        assert fetched == 0 and relation.raw_count({"name": "r0"}, "cuisine") == 0
    elif name == "round_scheduler":
        assert result.round_count == 2 and result.total_answers == 0
    else:
        documents = proofreading_dataset(2, seed=9)
        assert result.corrected == [list(doc.words) for doc in documents]


class TestOperatorFailurePolicy:
    """Every operator collects through the batch scheduler, so its faults,
    failure policy and breakers apply to all of them."""

    @pytest.mark.parametrize("policy", ["fail", "skip", "degrade"])
    @pytest.mark.parametrize("operator", _COLLECTING_OPERATORS)
    def test_abandoning_pool_follows_the_failure_policy(self, operator, policy):
        engine = abandoning_engine(
            EngineConfig(seed=3, failure_policy=policy), abandon_rate=1.0
        )
        if policy == "fail":
            with pytest.raises(RetryExhaustedError):
                _run_operator(engine, operator)
            return
        result = _run_operator(engine, operator)
        assert engine.spent == 0.0
        assert engine.stats.answers_collected == 0
        assert engine.stats.assignments_abandoned > 0
        _assert_no_verdicts(engine, operator, result)

    @pytest.mark.parametrize("policy", ["skip", "degrade"])
    @pytest.mark.parametrize("operator", _COLLECTING_OPERATORS)
    def test_partial_answers_keep_the_ledger(self, operator, policy):
        engine = abandoning_engine(
            EngineConfig(seed=5, failure_policy=policy), abandon_rate=0.5
        )
        _run_operator(engine, operator)
        answers = engine.platform.answers
        assert engine.stats.answers_collected == len(answers)
        assert engine.spent == pytest.approx(sum(a.reward_paid for a in answers))

    @pytest.mark.parametrize("max_parallel", [1, 2, 8])
    @pytest.mark.parametrize("strategy", ["rating", "hybrid"])
    @pytest.mark.parametrize("policy", ["skip", "degrade"])
    def test_unrated_items_rank_last_in_input_order(self, policy, strategy, max_parallel):
        engine = abandoning_engine(
            EngineConfig(seed=5, failure_policy=policy, max_parallel=max_parallel),
            abandon_rate=0.5,
        )
        # A threshold above the scale's width marks every rated pair close.
        kwargs = {"close_threshold": 100.0} if strategy == "hybrid" else {}
        result = engine.sort(list(range(12)), score_fn=float, strategy=strategy, **kwargs)
        ratings = result.ratings
        rated = [i for i in result.order if i in ratings]
        unrated = [i for i in range(12) if i not in ratings]
        assert rated and unrated
        assert result.order == rated + unrated
        # Answers received: skip also drops a failed task's partial answers.
        if policy == "degrade":
            assert result.answers_bought == engine.stats.answers_collected
        else:
            assert result.answers_bought <= engine.stats.answers_collected
        if strategy == "rating":
            assert rated == sorted(ratings, key=lambda i: (-ratings[i], i))
        else:
            # Only rated neighbours are compared.
            assert 0 < result.comparisons_asked <= len(rated) - 1

    def test_tripped_deadline_breaker_stops_categorize(self):
        engine = CrowdEngine(EngineConfig(seed=3, failure_policy="degrade"))
        engine.scheduler.breakers.append(DeadlineBreaker(deadline=1.0))
        engine.filter(list(range(40)), "even?", lambda i: i % 2 == 0, adaptive=False)
        assert any(b.tripped for b in engine.scheduler.breakers)
        answers, spent = engine.stats.answers_collected, engine.spent
        result = engine.categorize(
            list(range(20)), ("a", "b", "c"), truth_fn=lambda i: "abc"[i % 3]
        )
        assert engine.stats.answers_collected == answers
        assert engine.spent == spent
        assert result.labels == {}

    def test_sql_fill_runs_on_the_simulated_clock(self, tmp_path):
        engine = CrowdEngine(
            EngineConfig(seed=3, trace_path=str(tmp_path / "run.jsonl")),
            oracle=CrowdOracle(fill_fn=lambda row, col: row["k"] + "!"),
        )
        engine.sql(
            "CREATE TABLE c (k STRING, v STRING CROWD);"
            "INSERT INTO c (k) VALUES ('x'), ('y'), ('z')"
        )
        batches = engine.stats.batches_dispatched
        result = engine.query("SELECT k, v FROM c")
        assert result.rows == [
            {"k": "x", "v": "x!"}, {"k": "y", "v": "y!"}, {"k": "z", "v": "z!"}
        ]
        assert engine.spent == pytest.approx(0.09)  # 3 cells x 3 votes x 0.01
        assert engine.stats.batches_dispatched == batches + 1
        engine.close()
        spans = load_spans(str(tmp_path / "run.jsonl"))
        fill = [s for s in spans if s["name"] == "statement"][-1]
        assert fill["sim_end"] - fill["sim_start"] > 0.0

    @pytest.mark.parametrize("abandon_rate", [0.3, 1.0])
    @pytest.mark.parametrize("policy", ["skip", "degrade"])
    def test_requester_infers_over_answered_tasks(self, policy, abandon_rate):
        platform = SimulatedPlatform(
            WorkerPool.uniform(15, 0.9, seed=7),
            seed=8,
            batch=BatchConfig(
                abandon_rate=abandon_rate, retry_limit=0, failure_policy=policy
            ),
        )
        report = Requester(platform).submit("job", make_choice_tasks(12, seed=1))
        answered = {task_id for task_id, got in report.answers.items() if got}
        assert platform.stats.assignments_abandoned > 0
        assert set(report.truths) == answered
        assert (abandon_rate == 1.0) == (not answered)
