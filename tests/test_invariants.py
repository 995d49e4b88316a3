"""System-level invariants and failure injection.

These tests verify properties the architecture promises hold *everywhere*:
budget conservation, graceful behaviour at the budget boundary, consistent
state after mid-operation failures, and platform determinism under seeding.
"""


import pytest

from repro.errors import BudgetExceededError, NoWorkersAvailableError
from repro.operators.fill import CrowdFill
from repro.operators.filter import AdaptiveFilter, FixedKFilter
from repro.operators.join import CrowdJoin
from repro.platform.platform import SimulatedPlatform
from repro.quality.assignment import RoundRobinAssignment, run_assignment
from repro.workers.pool import WorkerPool

from conftest import make_choice_tasks


class TestBudgetConservation:
    """Every spent credit is attributable to exactly one answer."""

    def test_collect_accounting(self):
        platform = SimulatedPlatform(WorkerPool.uniform(10, seed=1), seed=2)
        tasks = make_choice_tasks(20, seed=3)
        platform.collect(tasks, redundancy=3)
        assert platform.stats.cost_spent == pytest.approx(
            sum(a.reward_paid for a in platform.answers)
        )
        assert platform.stats.answers_collected == len(platform.answers) == 60

    def test_timeline_accounting(self):
        platform = SimulatedPlatform(WorkerPool.uniform(10, seed=4), seed=5)
        tasks = make_choice_tasks(15, seed=6)
        platform.simulate_timeline(tasks, redundancy=2)
        assert platform.stats.cost_spent == pytest.approx(
            sum(a.reward_paid for a in platform.answers)
        )

    def test_online_assignment_accounting(self):
        platform = SimulatedPlatform(WorkerPool.uniform(10, seed=7), seed=8)
        tasks = make_choice_tasks(10, seed=9)
        outcome = run_assignment(
            platform, RoundRobinAssignment(redundancy=2), tasks, max_answers=100
        )
        assert outcome.cost == pytest.approx(platform.stats.cost_spent)

    def test_worker_earnings_match_spend(self):
        # A worker's earnings are read off the answer log, the one ledger.
        platform = SimulatedPlatform(WorkerPool.uniform(8, seed=10), seed=11)
        tasks = make_choice_tasks(12, seed=12)
        platform.collect(tasks, redundancy=3)
        earned: dict[str, float] = {}
        for answer in platform.answers:
            earned[answer.worker_id] = earned.get(answer.worker_id, 0.0) + answer.reward_paid
        assert set(earned) <= {w.worker_id for w in platform.pool}
        assert sum(earned.values()) == pytest.approx(platform.stats.cost_spent)


class TestBudgetBoundary:
    def test_spend_exactly_to_budget(self):
        platform = SimulatedPlatform(WorkerPool.uniform(10, seed=1), budget=0.10, seed=2)
        tasks = make_choice_tasks(5, seed=3)
        platform.collect(tasks, redundancy=2)  # exactly 0.10
        assert platform.remaining_budget == pytest.approx(0.0)
        with pytest.raises(BudgetExceededError):
            platform.ask(make_choice_tasks(1, seed=4)[0])

    def test_failed_charge_does_not_spend(self):
        platform = SimulatedPlatform(WorkerPool.uniform(10, seed=5), budget=0.005, seed=6)
        task = make_choice_tasks(1, seed=7)[0]
        with pytest.raises(BudgetExceededError):
            platform.ask(task)
        assert platform.stats.cost_spent == 0.0
        assert platform.stats.answers_collected == 0

    def test_filter_fails_cleanly_mid_run(self):
        platform = SimulatedPlatform(WorkerPool.uniform(10, seed=8), budget=0.07, seed=9)
        op = FixedKFilter(platform, "q", truth_fn=lambda i: True, redundancy=3)
        with pytest.raises(BudgetExceededError):
            op.run(list(range(10)))
        # Whatever was bought is still consistently accounted.
        assert platform.stats.cost_spent <= 0.07 + 1e-9
        assert platform.stats.cost_spent == pytest.approx(
            sum(a.reward_paid for a in platform.answers)
        )

    def test_join_fails_cleanly_mid_run(self):
        platform = SimulatedPlatform(WorkerPool.uniform(10, seed=10), budget=0.05, seed=11)
        records = [f"swift falcon {i}" for i in range(6)]
        join = CrowdJoin(platform, lambda a, b: a == b, redundancy=3)
        with pytest.raises(BudgetExceededError):
            join.run(records)
        assert platform.stats.cost_spent <= 0.05 + 1e-9

    def test_fill_fails_cleanly_and_partial_progress_persists(self):
        from repro.data.schema import SchemaBuilder
        from repro.data.table import Table

        schema = SchemaBuilder().string("k").crowd_string("v").build()
        table = Table("t", schema)
        table.insert_many([{"k": str(i)} for i in range(10)])
        platform = SimulatedPlatform(WorkerPool.uniform(10, seed=12), budget=0.12, seed=13)
        filler = CrowdFill(platform, truth_fn=lambda row, col: row["k"], redundancy=3)
        with pytest.raises(BudgetExceededError):
            filler.run(table)
        # Collect-then-infer is transactional per batch here: on failure no
        # cells were written, and all spend is accounted.
        assert platform.stats.cost_spent <= 0.12 + 1e-9
        assert 0 <= 10 - len(table.cnull_cells()) <= 10


class TestPoolExhaustion:
    def test_all_workers_deactivated(self):
        pool = WorkerPool.uniform(3, seed=1)
        platform = SimulatedPlatform(pool, seed=2)
        for worker in list(pool):
            pool.deactivate(worker.worker_id)
        with pytest.raises(NoWorkersAvailableError):
            platform.ask(make_choice_tasks(1, seed=3)[0])

    def test_adaptive_filter_with_tiny_pool(self):
        # 3 workers, max 5 answers per item: only 3 obtainable per item.
        platform = SimulatedPlatform(WorkerPool.uniform(3, 0.9, seed=4), seed=5)
        op = AdaptiveFilter(
            platform, "q", truth_fn=lambda i: True, margin=2, max_answers=3
        )
        result = op.run([1, 2, 3])
        assert len(result.decisions) == 3


class TestDeterminism:
    def test_identical_seeds_identical_everything(self):
        def run():
            platform = SimulatedPlatform(WorkerPool.heterogeneous(12, seed=9), seed=10)
            tasks = make_choice_tasks(25, seed=11)
            collected = platform.collect(tasks, redundancy=3)
            return (
                platform.stats.cost_spent,
                [a.value for t in tasks for a in collected[t.task_id]],
            )

        cost_a, values_a = run()
        cost_b, values_b = run()
        assert cost_a == cost_b
        assert values_a == values_b

    def test_engine_determinism_end_to_end(self):
        from repro import CrowdEngine, EngineConfig

        def run():
            engine = CrowdEngine(EngineConfig(seed=77))
            result = engine.filter(list(range(20)), "q", lambda i: i % 2 == 0)
            return result.decisions, engine.spent

        assert run() == run()
