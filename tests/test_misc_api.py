"""Tests for smaller public APIs not covered elsewhere."""


import pytest

from repro.cost.taskdesign import FatigueModel, iterate_hit_slots
from repro.hybrid import NaiveBayesText
from repro.platform.pricing import PriceResponseModel, PricingPolicy
from repro.platform.task import HIT, fill
from repro.quality.truth import answers_from_platform
from repro.workers.models import ConfusionMatrixModel
from repro.workers.pool import WorkerPool

from conftest import make_choice_tasks


class TestPricingHelpers:
    def test_apply_stamps_rewards(self):
        policy = PricingPolicy(default=0.05)
        tasks = [fill("a"), fill("b")]
        policy.apply(tasks)
        assert all(t.reward == pytest.approx(0.05) for t in tasks)

    def test_expected_speedup_equals_rate_multiplier(self):
        model = PriceResponseModel()
        assert model.expected_speedup(0.05) == model.rate_multiplier(0.05)


class TestTaskDesignHelpers:
    def test_effective_accuracy(self):
        fatigue = FatigueModel(decay=0.1, floor=0.5)
        assert fatigue.effective_accuracy(0.9, 0) == pytest.approx(0.9)
        assert fatigue.effective_accuracy(0.9, 3) == pytest.approx(0.9 * 0.7)
        with pytest.raises(Exception):
            fatigue.multiplier(-1)

    def test_iterate_hit_slots(self):
        hit = HIT(tasks=[fill("a"), fill("b")])
        slots = list(iterate_hit_slots(hit))
        assert [s for s, _t in slots] == [0, 1]
        assert slots[1][1].question == "b"


class TestAnswersFromPlatform:
    def test_normalizes_collect_output(self, platform):
        tasks = make_choice_tasks(3, seed=1)
        collected = platform.collect(tasks, redundancy=2)
        normalized = answers_from_platform(tasks, collected)
        assert set(normalized) == {t.task_id for t in tasks}
        assert all(len(v) == 2 for v in normalized.values())

    def test_missing_tasks_get_empty_lists(self, platform):
        tasks = make_choice_tasks(2, seed=2)
        normalized = answers_from_platform(tasks, {})
        assert all(v == [] for v in normalized.values())


class TestConfusionPool:
    def test_factory_builds_per_worker_matrices(self):
        def factory(rng):
            flip = float(rng.uniform(0.0, 0.2))
            return ConfusionMatrixModel(
                {"a": {"a": 1 - flip, "b": flip}, "b": {"a": flip, "b": 1 - flip}}
            )

        pool = WorkerPool.confusion_pool(6, factory, seed=3)
        assert len(pool) == 6
        matrices = [w.model.matrix["a"]["a"] for w in pool]
        assert len(set(matrices)) > 1  # factory varied per worker


class TestNaiveBayesInternals:
    def test_predict_log_proba_orders_like_proba(self):
        model = NaiveBayesText().fit(
            ["goal match", "stock bond"], ["sports", "finance"]
        )
        logs = model.predict_log_proba("goal goal")
        probas = model.predict_proba("goal goal")
        assert max(logs, key=logs.get) == max(probas, key=probas.get)
        assert model.n_documents == 2


class TestReportPrinting:
    def test_print_table_and_series(self, capsys):
        from repro.experiments.report import print_series, print_table

        print_table([{"a": 1}], title="T")
        print_series([1, 2], [3.0, 4.0], title="S")
        out = capsys.readouterr().out
        assert "T" in out and "S" in out and "#" in out


class TestRoundRecordHelpers:
    def test_critical_path(self, platform):
        from repro.latency.rounds import RoundScheduler

        scheduler = RoundScheduler(platform, redundancy=1)
        outcome = scheduler.run(
            make_choice_tasks(2, seed=4), lambda answers, i: []
        )
        assert outcome.critical_path == [outcome.rounds[0].duration]

    def test_mitigation_from_timeline(self, platform):
        from repro.latency.mitigation import MitigationResult

        tasks = make_choice_tasks(5, seed=5)
        timeline = platform.simulate_timeline(tasks, redundancy=1)
        result = MitigationResult.from_timeline(timeline, cost=0.05, strategy="x")
        assert result.makespan == pytest.approx(timeline.makespan)
        assert result.answers_used == 5
        assert result.strategy == "x"


class TestDecoAnchorKeys:
    def test_anchor_keys_in_insertion_order(self):
        from repro.deco import ConceptualRelation, single_column_group

        relation = ConceptualRelation(
            "r", ("name",), [single_column_group("g")]
        )
        relation.add_anchor(name="b")
        relation.add_anchor(name="a")
        assert relation.anchor_keys == [("b",), ("a",)]


class TestWorkerHelpers:
    def test_inter_arrival_positive(self, rng):
        from repro.workers.worker import LatencyModel

        model = LatencyModel(arrival_rate=0.1)
        assert all(model.inter_arrival(rng) > 0 for _ in range(50))
