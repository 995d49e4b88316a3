"""Unit tests for repro.workers (models, worker, pool)."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, NoWorkersAvailableError
from repro.platform.task import Task, TaskType, compare, numeric, rate, single_choice
from repro.workers.models import (
    BiasedModel,
    CollectorModel,
    ComparisonNoiseModel,
    ConfusionMatrixModel,
    GladModel,
    OneCoinModel,
    SpammerModel,
)
from repro.workers.pool import WorkerPool, true_accuracy
from repro.workers.worker import LatencyModel, Worker


def _answers(model, task, n=2000, seed=0):
    rng = np.random.default_rng(seed)
    return [model.answer(task, rng) for _ in range(n)]


class TestOneCoin:
    def test_accuracy_bounds_validated(self):
        with pytest.raises(ConfigurationError):
            OneCoinModel(accuracy=1.5)

    def test_empirical_accuracy(self):
        task = single_choice("q", ("a", "b", "c"), truth="a")
        answers = _answers(OneCoinModel(0.8), task)
        hit_rate = sum(1 for a in answers if a == "a") / len(answers)
        assert 0.76 < hit_rate < 0.84

    def test_perfect_worker(self):
        task = single_choice("q", ("a", "b"), truth="a")
        assert set(_answers(OneCoinModel(1.0), task, n=50)) == {"a"}

    def test_wrong_answers_are_valid_options(self):
        task = single_choice("q", ("a", "b", "c"), truth="a")
        assert set(_answers(OneCoinModel(0.5), task)) <= {"a", "b", "c"}

    def test_fill_errors_are_marked(self):
        task = Task(TaskType.FILL, question="q", truth="paris")
        answers = _answers(OneCoinModel(0.5), task, n=200)
        wrong = [a for a in answers if a != "paris"]
        assert wrong and all("typo" in a for a in wrong)

    def test_numeric_noise_scales_with_accuracy(self):
        task = numeric("q", truth=100.0)
        sloppy = np.std(_answers(OneCoinModel(0.5), task))
        careful = np.std(_answers(OneCoinModel(0.95), task))
        assert careful < sloppy

    def test_rate_clamped_to_scale(self):
        task = rate("q", scale=(1, 5), truth=5.0)
        answers = _answers(OneCoinModel(0.6), task, n=300)
        assert all(1 <= a <= 5 for a in answers)


class TestConfusionMatrix:
    def test_rows_must_sum_to_one(self):
        with pytest.raises(ConfigurationError):
            ConfusionMatrixModel({"a": {"a": 0.5, "b": 0.1}})

    def test_follows_matrix(self):
        model = ConfusionMatrixModel(
            {"a": {"a": 0.9, "b": 0.1}, "b": {"a": 0.4, "b": 0.6}}
        )
        task = single_choice("q", ("a", "b"), truth="b")
        answers = _answers(model, task)
        share_a = sum(1 for x in answers if x == "a") / len(answers)
        assert 0.36 < share_a < 0.44

    def test_unknown_truth_falls_back(self):
        model = ConfusionMatrixModel({"a": {"a": 1.0}})
        task = single_choice("q", ("x", "y"), truth="x")
        answers = _answers(model, task, n=300)
        assert set(answers) <= {"x", "y"}


class TestGlad:
    def test_high_ability_beats_low(self):
        task = single_choice("q", ("a", "b"), truth="a", difficulty=0.3)
        strong = _answers(GladModel(3.0), task)
        weak = _answers(GladModel(0.2), task)
        acc = lambda xs: sum(1 for x in xs if x == "a") / len(xs)
        assert acc(strong) > acc(weak)

    def test_difficulty_hurts(self):
        model = GladModel(2.0)
        easy = single_choice("q", ("a", "b"), truth="a", difficulty=0.0)
        hard = single_choice("q", ("a", "b"), truth="a", difficulty=0.9)
        assert model.correctness_probability(easy) > model.correctness_probability(hard)

    def test_negative_ability_below_chance(self):
        task = single_choice("q", ("a", "b"), truth="a")
        answers = _answers(GladModel(-2.0), task)
        acc = sum(1 for x in answers if x == "a") / len(answers)
        assert acc < 0.35


class TestSpammerAndBias:
    def test_spammer_uniform(self):
        task = single_choice("q", ("a", "b"), truth="a")
        answers = _answers(SpammerModel(), task)
        share_a = sum(1 for x in answers if x == "a") / len(answers)
        assert 0.45 < share_a < 0.55

    def test_spammer_rate_in_scale(self):
        task = rate("q", scale=(1, 5))
        assert all(1 <= a <= 5 for a in _answers(SpammerModel(), task, n=200))

    def test_biased_prefers_label(self):
        model = BiasedModel(preferred="b", bias_probability=0.95)
        task = single_choice("q", ("a", "b"), truth="a")
        answers = _answers(model, task)
        share_b = sum(1 for x in answers if x == "b") / len(answers)
        assert share_b > 0.85

    def test_biased_validates_probability(self):
        with pytest.raises(ConfigurationError):
            BiasedModel(preferred="x", bias_probability=2.0)


class TestComparisonNoise:
    def test_wide_gap_is_easy(self):
        task = compare("A", "B", payload={"left_score": 1.0, "right_score": 0.0})
        answers = _answers(ComparisonNoiseModel(sharpness=6.0), task)
        acc = sum(1 for x in answers if x == "left") / len(answers)
        assert acc > 0.95

    def test_tiny_gap_is_hard(self):
        task = compare("A", "B", payload={"left_score": 0.51, "right_score": 0.50})
        answers = _answers(ComparisonNoiseModel(sharpness=6.0), task)
        acc = sum(1 for x in answers if x == "left") / len(answers)
        assert 0.4 < acc < 0.65

    def test_ratings_are_noisy(self):
        task = rate("q", scale=(1, 10), truth=5.0)
        answers = _answers(ComparisonNoiseModel(rating_noise=0.4), task)
        assert np.std(answers) > 0.8

    def test_missing_scores_fall_back(self):
        task = compare("A", "B", truth="left")
        answers = _answers(ComparisonNoiseModel(fallback_accuracy=0.9), task)
        acc = sum(1 for x in answers if x == "left") / len(answers)
        assert acc > 0.85


class TestCollector:
    def test_contributes_only_known_items(self):
        model = CollectorModel(known_items=("x", "y"))
        task = Task(TaskType.COLLECT, question="q")
        assert set(_answers(model, task, n=100)) == {"x", "y"}

    def test_empty_knowledge_yields_none(self):
        task = Task(TaskType.COLLECT, question="q")
        assert _answers(CollectorModel(), task, n=5) == [None] * 5

    def test_bind_knowledge(self):
        model = CollectorModel()
        model.bind_knowledge(("a",))
        task = Task(TaskType.COLLECT, question="q")
        assert _answers(model, task, n=5) == ["a"] * 5


class TestWorkerAndLatency:
    def test_latency_validation(self):
        with pytest.raises(ConfigurationError):
            LatencyModel(mean_seconds=-1)

    def test_service_time_positive(self, rng):
        model = LatencyModel(mean_seconds=10)
        assert all(model.service_time(rng) > 0 for _ in range(100))

    def test_submit_returns_a_paid_answer(self, rng):
        worker = Worker(model=OneCoinModel(1.0))
        task = single_choice("q", ("a", "b"), truth="a", reward=0.05)
        answer = worker.submit(task, rng)
        assert answer.value == "a"
        assert (answer.task_id, answer.worker_id) == (task.task_id, worker.worker_id)
        assert answer.reward_paid == pytest.approx(0.05)

    def test_answer_submitted_at_includes_duration(self, rng):
        worker = Worker()
        task = single_choice("q", ("a", "b"), truth="a")
        answer = worker.submit(task, rng, now=100.0)
        assert answer.submitted_at > 100.0
        assert answer.duration == pytest.approx(answer.submitted_at - 100.0)


class TestWorkerPool:
    def test_empty_pool_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkerPool([])

    def test_uniform_factory(self):
        pool = WorkerPool.uniform(5, 0.7, seed=1)
        assert len(pool) == 5
        assert all(true_accuracy(w) == pytest.approx(0.7) for w in pool)

    def test_heterogeneous_within_range(self):
        pool = WorkerPool.heterogeneous(30, 0.6, 0.9, seed=2)
        accs = [true_accuracy(w) for w in pool]
        assert all(0.6 <= a <= 0.9 for a in accs)
        assert max(accs) - min(accs) > 0.1

    def test_spammer_fraction(self):
        pool = WorkerPool.with_spammers(20, spammer_fraction=0.25, seed=3)
        spammers = [w for w in pool if true_accuracy(w) is None]
        assert len(spammers) == 5

    def test_spammer_fraction_validated(self):
        with pytest.raises(ConfigurationError):
            WorkerPool.with_spammers(10, spammer_fraction=1.5)

    def test_small_pool_nonzero_fraction_gets_a_spammer(self):
        # Regression: round(4 * 0.1) == 0 used to produce a spammer-free
        # "spammer" pool; any positive fraction must yield at least one.
        pool = WorkerPool.with_spammers(4, spammer_fraction=0.1, seed=6)
        spammers = [w for w in pool if true_accuracy(w) is None]
        assert len(spammers) == 1

    def test_zero_fraction_means_no_spammers(self):
        pool = WorkerPool.with_spammers(6, spammer_fraction=0.0, seed=7)
        assert all(true_accuracy(w) is not None for w in pool)

    def test_add_worker_rejects_duplicate_id(self):
        pool = WorkerPool.uniform(3, seed=8)
        from repro.workers.models import OneCoinModel
        from repro.workers.worker import Worker

        pool.add_worker(Worker(model=OneCoinModel(0.8), worker_id="newcomer"))
        assert "newcomer" in pool
        with pytest.raises(ConfigurationError):
            pool.add_worker(Worker(model=OneCoinModel(0.8), worker_id="newcomer"))

    def test_sample_distinct(self):
        pool = WorkerPool.uniform(10, seed=4)
        workers = pool.sample(5)
        assert len({w.worker_id for w in workers}) == 5

    def test_sample_excludes(self):
        pool = WorkerPool.uniform(3, seed=5)
        excluded = pool.workers[0].worker_id
        for _ in range(10):
            sampled = pool.sample(2, exclude={excluded})
            assert excluded not in {w.worker_id for w in sampled}

    def test_sample_too_many_raises(self):
        pool = WorkerPool.uniform(3, seed=6)
        with pytest.raises(NoWorkersAvailableError):
            pool.sample(4)

    def test_deactivate_removes_from_sampling(self):
        pool = WorkerPool.uniform(3, seed=7)
        victim = pool.workers[0].worker_id
        pool.deactivate(victim)
        assert len(pool.active_workers) == 2
        with pytest.raises(NoWorkersAvailableError):
            pool.sample(3)

    def test_round_robin_cycles(self):
        pool = WorkerPool.uniform(3, seed=8)
        stream = pool.round_robin()
        seen = [next(stream).worker_id for _ in range(6)]
        assert seen[:3] == seen[3:]

    def test_arrivals_sorted_and_bounded(self):
        pool = WorkerPool.uniform(5, seed=9)
        events = pool.arrivals(horizon=300.0)
        times = [t for t, _w in events]
        assert times == sorted(times)
        assert all(t <= 300.0 for t in times)

    def test_glad_spectrum(self):
        pool = WorkerPool.glad_spectrum(10, seed=10)
        assert len(pool) == 10

    def test_duplicate_ids_rejected(self):
        worker = Worker()
        with pytest.raises(ConfigurationError):
            WorkerPool([worker, worker])
