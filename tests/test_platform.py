"""Unit tests for repro.platform (tasks, events, pricing, market)."""

import math

import pytest

from repro.errors import (
    BudgetExceededError,
    ConfigurationError,
    NoWorkersAvailableError,
    PlatformError,
    TaskStateError,
)
from repro.platform.events import EventSimulator
from repro.platform.platform import SimulatedPlatform
from repro.platform.pricing import PriceResponseModel, PricingPolicy
from repro.platform.task import (
    HIT,
    Task,
    TaskState,
    TaskType,
    compare,
    fill,
    numeric,
    rate,
    single_choice,
)
from repro.workers.pool import WorkerPool


class TestTask:
    def test_choice_requires_options(self):
        with pytest.raises(TaskStateError):
            Task(TaskType.SINGLE_CHOICE, question="q")

    def test_difficulty_bounds(self):
        with pytest.raises(TaskStateError):
            Task(TaskType.FILL, question="q", difficulty=1.0)

    def test_negative_reward_rejected(self):
        with pytest.raises(TaskStateError):
            Task(TaskType.FILL, question="q", reward=-1)

    def test_ids_unique(self):
        a, b = fill("q1"), fill("q2")
        assert a.task_id != b.task_id

    def test_lifecycle(self):
        task = fill("q")
        assert task.is_open
        task.complete()
        assert task.state is TaskState.COMPLETED
        with pytest.raises(TaskStateError):
            task.complete()

    def test_cancel(self):
        task = fill("q")
        task.cancel()
        with pytest.raises(TaskStateError):
            task.cancel()

    def test_compare_builder(self):
        task = compare("x", "y", truth="left")
        assert task.options == ("left", "right")
        assert task.payload["left"] == "x"

    def test_rate_builder_scale(self):
        task = rate("q", scale=(1, 7))
        assert task.payload["scale"] == (1, 7)

    def test_numeric_builder(self):
        assert numeric("q", truth=5.0).truth == 5.0

    def test_hit_requires_tasks(self):
        with pytest.raises(TaskStateError):
            HIT(tasks=[])

    def test_hit_reward_defaults_to_sum(self):
        tasks = [fill("a", reward=0.01), fill("b", reward=0.02)]
        hit = HIT(tasks=tasks)
        assert hit.reward == pytest.approx(0.03)
        assert len(hit) == 2


class TestEventSimulator:
    def test_events_in_time_order(self):
        sim = EventSimulator()
        sim.schedule(5.0, "b")
        sim.schedule(1.0, "a")
        sim.schedule(3.0, "c")
        kinds = [e.kind for e in sim.drain()]
        assert kinds == ["a", "c", "b"]

    def test_clock_advances(self):
        sim = EventSimulator()
        sim.schedule(2.5, "x")
        sim.step()
        assert sim.now == pytest.approx(2.5)

    def test_cannot_schedule_past(self):
        sim = EventSimulator()
        with pytest.raises(PlatformError):
            sim.schedule(-1.0, "x")

    def test_schedule_at_absolute(self):
        sim = EventSimulator()
        sim.schedule(1.0, "x")
        sim.step()
        with pytest.raises(PlatformError):
            sim.schedule_at(0.5, "y")

    def test_simultaneous_events_fifo(self):
        sim = EventSimulator()
        sim.schedule(1.0, "first")
        sim.schedule(1.0, "second")
        kinds = [e.kind for e in sim.drain()]
        assert kinds == ["first", "second"]

    def test_run_handler_can_schedule(self):
        sim = EventSimulator()
        sim.schedule(1.0, "tick", count=3)

        def handler(event, simulator):
            remaining = event.payload["count"]
            if remaining > 1:
                simulator.schedule(1.0, "tick", count=remaining - 1)

        final = sim.run(handler)
        assert final == pytest.approx(3.0)
        assert sim.events_processed == 3

    def test_run_until_stops_clock(self):
        sim = EventSimulator()
        sim.schedule(10.0, "late")
        final = sim.run(lambda e, s: None, until=5.0)
        assert final == pytest.approx(5.0)

    def test_runaway_guard(self):
        sim = EventSimulator()
        sim.schedule(1.0, "tick")

        def forever(event, simulator):
            simulator.schedule(1.0, "tick")

        with pytest.raises(PlatformError, match="budget"):
            sim.run(forever, max_events=100)


class TestPricing:
    def test_policy_by_type(self):
        policy = PricingPolicy(default=0.02, by_type={TaskType.COMPARE: 0.005})
        assert policy.price(fill("q")) == pytest.approx(0.02)
        assert policy.price(compare("a", "b")) == pytest.approx(0.005)

    def test_negative_reward_rejected(self):
        with pytest.raises(Exception):
            PricingPolicy(default=-0.01)

    def test_total_cost(self):
        policy = PricingPolicy(default=0.01)
        tasks = [fill("a"), fill("b")]
        assert policy.total_cost(tasks, redundancy=3) == pytest.approx(0.06)

    def test_response_reference_is_unity(self):
        model = PriceResponseModel(reference_reward=0.01)
        assert model.rate_multiplier(0.01) == pytest.approx(1.0)

    def test_response_monotone(self):
        model = PriceResponseModel()
        assert model.rate_multiplier(0.05) > model.rate_multiplier(0.01)

    def test_response_clamped(self):
        model = PriceResponseModel(floor=0.2, ceiling=3.0)
        assert model.rate_multiplier(1e-9) == pytest.approx(0.2)
        assert model.rate_multiplier(1e9) == pytest.approx(3.0)


class TestSimulatedPlatform:
    def test_collect_redundancy_distinct_workers(self, platform):
        tasks = [single_choice("q", ("a", "b"), truth="a") for _ in range(4)]
        answers = platform.collect(tasks, redundancy=3)
        for task in tasks:
            workers = [a.worker_id for a in answers[task.task_id]]
            assert len(set(workers)) == 3

    def test_collect_completes_tasks(self, platform):
        tasks = [single_choice("q", ("a", "b"), truth="a")]
        platform.collect(tasks, redundancy=2)
        assert tasks[0].state is TaskState.COMPLETED

    def test_collect_charges_budget(self, uniform_pool):
        platform = SimulatedPlatform(uniform_pool, budget=0.05, seed=1)
        tasks = [single_choice("q", ("a", "b"), truth="a") for _ in range(2)]
        platform.collect(tasks, redundancy=2)  # 4 answers x 0.01 = 0.04
        with pytest.raises(BudgetExceededError):
            platform.collect(
                [single_choice("q2", ("a", "b"), truth="a")], redundancy=2
            )

    @pytest.mark.parametrize("budget", [float("nan"), 0.0, -1.0, -math.inf])
    def test_budget_must_be_positive(self, uniform_pool, budget):
        # A NaN budget passes every `spent + amount > budget` check, so it
        # would switch budget enforcement off instead of failing.
        with pytest.raises(ConfigurationError, match="budget must be > 0"):
            SimulatedPlatform(uniform_pool, budget=budget, seed=2)

    def test_redundancy_exceeding_pool_rejected(self, platform):
        with pytest.raises(NoWorkersAvailableError):
            platform.collect([single_choice("q", ("a",), truth="a")], redundancy=99)

    def test_redundancy_must_be_positive(self, platform):
        with pytest.raises(PlatformError):
            platform.collect([single_choice("q", ("a",), truth="a")], redundancy=0)

    def test_double_publish_rejected(self, platform):
        task = single_choice("q", ("a",), truth="a")
        platform.publish([task])
        with pytest.raises(PlatformError):
            platform.publish([task])

    def test_ask_auto_publishes(self, platform):
        task = single_choice("q", ("a", "b"), truth="a")
        answer = platform.ask(task)
        assert answer.task_id == task.task_id
        assert platform.stats.answers_collected == 1

    def test_ask_closed_task_rejected(self, platform):
        task = single_choice("q", ("a", "b"), truth="a")
        platform.publish([task])
        task.complete()
        with pytest.raises(PlatformError):
            platform.ask(task)

    def test_answers_for(self, platform):
        task = single_choice("q", ("a", "b"), truth="a")
        platform.ask(task)
        platform.ask(task)
        assert len(platform.answers_for(task.task_id)) == 2

    def test_worker_stream_avoids_repeats(self, platform):
        stream = platform.worker_stream()
        ids = [next(stream).worker_id for _ in range(50)]
        assert all(ids[i] != ids[i + 1] for i in range(len(ids) - 1))

    def test_stats_by_worker(self, platform):
        # Per-worker counts are read off the answer log, the one ledger.
        task = single_choice("q", ("a", "b"), truth="a")
        answer = platform.ask(task)
        assert [a.worker_id for a in platform.answers] == [answer.worker_id]
        assert platform.stats.answers_collected == 1

    def test_seeded_platforms_reproducible(self):
        def run(seed):
            pool = WorkerPool.uniform(8, 0.7, seed=5)
            positions = {w.worker_id: i for i, w in enumerate(pool)}
            platform = SimulatedPlatform(pool, seed=seed)
            tasks = [single_choice(f"q{i}", ("a", "b"), truth="a") for i in range(10)]
            collected = platform.collect(tasks, redundancy=3)
            # Worker ids are globally unique across pools, so compare pool
            # positions rather than raw ids.
            return [
                (positions[a.worker_id], a.value)
                for t in tasks
                for a in collected[t.task_id]
            ]

        assert run(99) == run(99)
        assert run(99) != run(100)

    def test_remaining_budget_infinite_by_default(self, platform):
        assert math.isinf(platform.remaining_budget)


class TestTimeline:
    def test_timeline_collects_all_answers(self, platform):
        tasks = [single_choice(f"q{i}", ("a", "b"), truth="a") for i in range(10)]
        result = platform.simulate_timeline(tasks, redundancy=2)
        assert len(result.answers) == 20
        assert len(result.completion_times) == 10
        assert result.makespan >= max(result.completion_times.values()) - 1e-9

    def test_timeline_charges_cost(self, uniform_pool):
        platform = SimulatedPlatform(uniform_pool, seed=3)
        tasks = [single_choice("q", ("a", "b"), truth="a") for _ in range(5)]
        platform.simulate_timeline(tasks, redundancy=1)
        assert platform.stats.cost_spent == pytest.approx(0.05)

    def test_completion_waits_for_redundancy(self, platform):
        tasks = [single_choice("q", ("a", "b"), truth="a")]
        result = platform.simulate_timeline(tasks, redundancy=3)
        times = sorted(a.submitted_at for a in result.answers)
        assert result.completion_times[tasks[0].task_id] == pytest.approx(times[2])

    def test_percentile(self, platform):
        tasks = [single_choice(f"q{i}", ("a", "b"), truth="a") for i in range(20)]
        result = platform.simulate_timeline(tasks, redundancy=1)
        assert result.percentile(50) <= result.percentile(95) <= result.makespan + 1e-9


class TestAttrition:
    def test_departure_probability_validated(self, platform):
        tasks = [single_choice("q", ("a", "b"), truth="a")]
        with pytest.raises(PlatformError):
            platform.simulate_timeline(tasks, departure_probability=1.0)

    def test_attrition_leaves_tasks_incomplete(self):
        # 5 workers, near-certain departure after one task: at most ~5-6
        # tasks of 30 can complete.
        pool = WorkerPool.uniform(5, seed=21)
        platform = SimulatedPlatform(pool, seed=22)
        tasks = [single_choice(f"a{i}", ("a", "b"), truth="a") for i in range(30)]
        result = platform.simulate_timeline(tasks, departure_probability=0.95)
        assert len(result.completion_times) < 15

    def test_attrition_does_not_deactivate_pool(self):
        pool = WorkerPool.uniform(5, seed=23)
        platform = SimulatedPlatform(pool, seed=24)
        tasks = [single_choice(f"b{i}", ("a", "b"), truth="a") for i in range(10)]
        platform.simulate_timeline(tasks, departure_probability=0.9)
        assert len(pool.active_workers) == 5

    def test_attrition_slows_completion(self):
        def makespan(departure):
            pool = WorkerPool.uniform(20, seed=25)
            platform = SimulatedPlatform(pool, seed=26)
            tasks = [
                single_choice(f"c{departure}{i}", ("a", "b"), truth="a")
                for i in range(40)
            ]
            result = platform.simulate_timeline(
                tasks, departure_probability=departure
            )
            return result.makespan, len(result.completion_times)

        stable_time, stable_done = makespan(0.0)
        churn_time, churn_done = makespan(0.5)
        # Heavy churn either slows the job down or leaves work unfinished.
        assert churn_done < stable_done or churn_time > stable_time
