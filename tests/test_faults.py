"""Unit tests for the fault-injection subsystem (repro.faults)."""

import json
from pathlib import Path

import pytest

from repro.errors import FaultPlanError
from repro.faults import (
    BudgetShock,
    DeliveryFaults,
    FaultInjector,
    FaultPlan,
    OutageWindow,
    StragglerSpikes,
    WorkerChurn,
    chaos_suite,
    random_plan,
    run_chaos,
    verify_kill_resume,
)
from repro.platform.platform import SimulatedPlatform
from repro.platform.task import single_choice
from repro.workers.pool import WorkerPool

#: ``run_chaos(seed, mitigation=m).digest`` as recorded, keyed by seed, then m.
CHAOS_DIGESTS = json.loads(
    (Path(__file__).parent / "data" / "chaos-digests.json").read_text(encoding="utf-8")
)


def full_plan(seed=3):
    return FaultPlan(
        seed=seed,
        outages=(OutageWindow(start=100.0, end=250.0),),
        churn=WorkerChurn(leave_rate=0.1, join_rate=0.5),
        delivery=DeliveryFaults(duplicate_rate=0.1, late_rate=0.2, corrupt_rate=0.05),
        stragglers=StragglerSpikes(rate=0.2, multiplier=6.0),
        budget_shocks=(BudgetShock(at_batch=2, factor=0.5),),
        name="full",
    )


class TestFaultPlan:
    def test_empty_plan_is_inert(self):
        plan = FaultPlan(seed=0)
        assert plan.empty
        assert plan.outage_delay(0.0) == 0.0
        assert plan.shock_factor(0) is None
        assert not full_plan().empty

    def test_outage_delay_inside_window(self):
        plan = FaultPlan(seed=0, outages=(OutageWindow(start=10.0, end=40.0),))
        assert plan.outage_delay(25.0) == pytest.approx(15.0)
        assert plan.outage_delay(40.0) == 0.0
        assert plan.outage_delay(5.0) == 0.0

    def test_validation_rejects_bad_window(self):
        with pytest.raises(FaultPlanError):
            OutageWindow(start=50.0, end=10.0)

    def test_validation_rejects_bad_rates(self):
        with pytest.raises(FaultPlanError):
            DeliveryFaults(duplicate_rate=1.5)
        with pytest.raises(FaultPlanError):
            WorkerChurn(leave_rate=-0.1)
        with pytest.raises(FaultPlanError):
            StragglerSpikes(rate=0.1, multiplier=0.5)
        with pytest.raises(FaultPlanError):
            BudgetShock(at_batch=-1, factor=0.5)

    def test_json_round_trip(self, tmp_path):
        plan = full_plan()
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json(), encoding="utf-8")
        loaded = FaultPlan.from_file(path)
        assert loaded == plan

    def test_from_dict_round_trip(self):
        plan = full_plan(seed=9)
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_to_json_is_valid_json(self):
        payload = json.loads(full_plan().to_json())
        assert payload["seed"] == 3

    def test_random_plan_is_deterministic(self):
        assert random_plan(5) == random_plan(5)
        assert random_plan(5) != random_plan(6)

    def test_random_plan_intensity_must_be_positive(self):
        with pytest.raises(FaultPlanError):
            random_plan(0, intensity=0.0)


class TestFaultInjector:
    def make_platform(self, seed=11, pool_size=8):
        pool = WorkerPool.heterogeneous(
            pool_size, accuracy_low=0.7, accuracy_high=0.95, seed=seed
        )
        return SimulatedPlatform(pool, seed=seed + 1)

    def test_delivery_is_deterministic_per_stream(self):
        plan = FaultPlan(
            seed=4, delivery=DeliveryFaults(duplicate_rate=0.5, late_rate=0.5)
        )
        platform = self.make_platform()
        task = single_choice("q?", ("yes", "no"), truth="yes")
        platform.publish([task])
        answer = platform.ask(task)
        first = FaultInjector(plan).deliver(answer, task, stream=7)
        second = FaultInjector(plan).deliver(answer, task, stream=7)
        assert [a.submitted_at for a in [first[0], *first[1]]] == [
            a.submitted_at for a in [second[0], *second[1]]
        ]
        assert first[2] == second[2]

    def test_duplicates_are_not_charged(self):
        plan = FaultPlan(seed=2, delivery=DeliveryFaults(duplicate_rate=1.0))
        platform = self.make_platform()
        task = single_choice("q?", ("yes", "no"), truth="yes")
        platform.publish([task])
        answer = platform.ask(task)
        _, duplicates, names = FaultInjector(plan).deliver(answer, task, stream=0)
        assert duplicates and all(d.reward_paid == 0.0 for d in duplicates)
        assert "duplicated" in names

    def test_corruption_flips_the_value(self):
        plan = FaultPlan(seed=2, delivery=DeliveryFaults(corrupt_rate=1.0))
        platform = self.make_platform()
        task = single_choice("q?", ("yes", "no"), truth="yes")
        platform.publish([task])
        answer = platform.ask(task)
        delivered, _, names = FaultInjector(plan).deliver(answer, task, stream=0)
        assert "corrupted" in names
        assert delivered.value in task.options

    def test_churn_respects_min_pool(self):
        plan = FaultPlan(seed=6, churn=WorkerChurn(leave_rate=1.0, join_rate=0.0))
        platform = self.make_platform(pool_size=5)
        FaultInjector(plan).on_batch_start(0, platform, redundancy=3)
        assert sum(1 for w in platform.pool if w.active) >= 3

    def test_churn_joins_use_deterministic_ids(self):
        plan = FaultPlan(seed=6, churn=WorkerChurn(leave_rate=0.0, join_rate=3.0))
        platform = self.make_platform()
        before = {w.worker_id for w in platform.pool}
        FaultInjector(plan).on_batch_start(1, platform, redundancy=3)
        joined = {w.worker_id for w in platform.pool} - before
        assert joined and all(w.startswith("j6b1n") for w in joined)

    def test_budget_shock_shrinks_remaining_budget(self):
        plan = FaultPlan(seed=0, budget_shocks=(BudgetShock(at_batch=0, factor=0.5),))
        pool = WorkerPool.heterogeneous(5, accuracy_low=0.7, accuracy_high=0.9, seed=0)
        platform = SimulatedPlatform(pool, budget=10.0, seed=1)
        FaultInjector(plan).on_batch_start(0, platform, redundancy=3)
        assert platform.budget == pytest.approx(5.0)

    def test_straggler_perturbs_duration(self):
        plan = FaultPlan(seed=1, stragglers=StragglerSpikes(rate=1.0, multiplier=10.0))
        injector = FaultInjector(plan)
        duration, straggled = injector.perturb_duration(0, 10.0)
        assert straggled and duration == pytest.approx(100.0)


class TestChaosHarness:
    def test_same_seed_same_digest(self):
        a = run_chaos(0, n_tasks=16, n_workers=8)
        b = run_chaos(0, n_tasks=16, n_workers=8)
        assert a.digest == b.digest
        assert a.checks == b.checks

    def test_different_seeds_differ(self):
        a = run_chaos(0, n_tasks=16, n_workers=8)
        b = run_chaos(1, n_tasks=16, n_workers=8)
        assert a.digest != b.digest

    def test_survival_contract_checks_recorded(self):
        report = run_chaos(2, n_tasks=16, n_workers=8)
        assert report.survived
        assert "cost_spent equals the sum of rewards paid" in report.checks
        assert "degrade keeps a key for every requested task" in report.checks

    def test_tight_budget_degrades_instead_of_crashing(self):
        report = run_chaos(3, n_tasks=30, n_workers=8, budget=0.25)
        coverage = report.result.coverage
        assert coverage.requested == 30
        assert coverage.failed > 0
        assert report.result.degraded

    def test_suite_runs_many_seeds(self):
        reports = chaos_suite(range(2), n_tasks=10, n_workers=6)
        assert [r.seed for r in reports] == [0, 1]
        summaries = [r.summary() for r in reports]
        assert all("coverage" in s for s in summaries)


class TestPinnedChaosOutcomes:
    """A chaos run's outcome is a function of its seed and mitigation alone:
    the same inputs reproduce the recorded digest, and a killed-and-resumed
    run reproduces the uninterrupted one."""

    CASES = [
        (int(seed), mitigation)
        for seed, digests in CHAOS_DIGESTS.items()
        for mitigation in digests
    ]

    @pytest.mark.parametrize("seed,mitigation", CASES)
    def test_digest_matches_the_record(self, seed, mitigation):
        report = run_chaos(seed, mitigation=mitigation)
        assert report.digest == CHAOS_DIGESTS[str(seed)][mitigation]

    @pytest.mark.parametrize("seed,mitigation", CASES)
    def test_kill_and_resume_is_bit_identical(self, seed, mitigation, tmp_path):
        assert verify_kill_resume(seed, str(tmp_path), mitigation=mitigation)
