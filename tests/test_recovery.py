"""Unit tests for graceful degradation and checkpoint/resume (repro.recovery)."""

import pytest

from repro.errors import (
    CheckpointError,
    ConfigurationError,
    RetryExhaustedError,
    SimulatedCrash,
)
from repro.faults import (
    DeliveryFaults,
    FaultPlan,
    OutageWindow,
    StragglerSpikes,
    WorkerChurn,
    verify_kill_resume,
)
from repro.platform.batch import BatchConfig
from repro.platform.platform import SimulatedPlatform
from repro.platform.task import Task, TaskType
from repro.recovery import (
    BudgetBreaker,
    Checkpoint,
    CheckpointingRunner,
    CoverageReport,
    DeadlineBreaker,
    FailureInfo,
    FailurePolicy,
)
from repro.workers.models import OneCoinModel
from repro.workers.pool import WorkerPool
from repro.workers.worker import Worker


def make_world(seed=7, n_workers=10, budget=None, policy="degrade", **batch_kwargs):
    """A fully deterministic platform: explicit worker ids, seeded streams."""
    import numpy as np

    rng = np.random.default_rng([seed, 99])
    workers = [
        Worker(model=OneCoinModel(float(rng.uniform(0.6, 0.95))), worker_id=f"rw{i}")
        for i in range(n_workers)
    ]
    pool = WorkerPool(workers, seed=seed)
    kwargs = dict(
        batch_size=8,
        max_parallel=3,
        retry_limit=2,
        assignment_timeout=200.0,
        abandon_rate=0.05,
        seed=seed + 2,
        failure_policy=policy,
    )
    kwargs.update(batch_kwargs)
    import math

    return SimulatedPlatform(
        pool,
        budget=math.inf if budget is None else budget,
        seed=seed + 1,
        batch=BatchConfig(**kwargs),
    )


def make_tasks(n, seed=7):
    return [
        Task(
            TaskType.SINGLE_CHOICE,
            question=f"recovery q{i}",
            options=("yes", "no"),
            truth="yes" if (seed + i) % 2 == 0 else "no",
            task_id=f"rec-s{seed}-t{i}",
        )
        for i in range(n)
    ]


def fingerprint(platform, answers):
    """Comparable view of a run: per-task answer tuples + key stats."""
    stats = platform.stats
    return (
        {
            task_id: [
                (a.worker_id, a.value, round(a.submitted_at, 9),
                 round(a.duration, 9), a.reward_paid)
                for a in got
            ]
            for task_id, got in sorted(answers.items())
        },
        (
            stats.answers_collected,
            round(stats.cost_spent, 9),
            stats.assignments_dispatched,
            stats.assignments_retried,
        ),
    )


class TestFailurePolicies:
    def test_fail_policy_raises_with_context(self):
        platform = make_world(policy="fail", abandon_rate=1.0, retry_limit=1)
        with pytest.raises(RetryExhaustedError) as excinfo:
            platform.scheduler.run(make_tasks(4), redundancy=2)
        exc = excinfo.value
        assert exc.attempts == 2
        assert exc.outcomes == ["abandoned", "abandoned"]
        assert "retry budget exhausted" in str(exc)

    def test_degrade_keeps_every_task_key(self):
        platform = make_world(policy="degrade", abandon_rate=1.0, retry_limit=1)
        tasks = make_tasks(5)
        run = platform.scheduler.run(tasks, redundancy=2)
        assert set(run.answers) == {t.task_id for t in tasks}
        assert all(not got for got in run.answers.values())
        assert all(
            run.failures[t.task_id].reason == "retries_exhausted" for t in tasks
        )
        assert run.degraded

    def test_skip_drops_failed_tasks(self):
        platform = make_world(policy="skip", abandon_rate=1.0, retry_limit=1)
        tasks = make_tasks(5)
        run = platform.scheduler.run(tasks, redundancy=2)
        assert run.answers == {}
        assert len(run.failures) == 5

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigurationError) as excinfo:
            BatchConfig(failure_policy="panic")
        assert "panic" in str(excinfo.value)

    def test_degrade_budget_exhaustion_records_failures(self):
        platform = make_world(policy="degrade", budget=0.05, abandon_rate=0.0)
        tasks = make_tasks(12)
        run = platform.scheduler.run(tasks, redundancy=3)
        assert run.failures
        assert {f.reason for f in run.failures.values()} <= {
            "budget_exhausted",
            "breaker:budget",
        }
        spent = sum(a.reward_paid for got in run.answers.values() for a in got)
        assert spent <= platform.budget + 1e-9


class TestBreakers:
    def test_budget_breaker_halts_between_batches(self):
        platform = make_world(policy="degrade", budget=0.30, abandon_rate=0.0)
        platform.scheduler.breakers = [BudgetBreaker(reserve=0.15)]
        tasks = make_tasks(24)
        run = platform.scheduler.run(tasks, redundancy=3)
        assert any(
            info.reason == "breaker:budget" for info in run.failures.values()
        )
        assert platform.stats.cost_spent <= 0.30 + 1e-9

    def test_deadline_breaker_halts(self):
        platform = make_world(policy="degrade", abandon_rate=0.0)
        platform.scheduler.breakers = [DeadlineBreaker(deadline=1.0)]
        tasks = make_tasks(24)
        run = platform.scheduler.run(tasks, redundancy=3)
        assert any(
            info.reason == "breaker:deadline" for info in run.failures.values()
        )

    def test_breakers_ignored_under_fail_policy(self):
        platform = make_world(policy="fail", abandon_rate=0.0)
        platform.scheduler.breakers = [DeadlineBreaker(deadline=1.0)]
        run = platform.scheduler.run(make_tasks(12), redundancy=2)
        assert not run.failures

    def test_breaker_validation(self):
        with pytest.raises(ConfigurationError):
            BudgetBreaker(reserve=-1.0)
        with pytest.raises(ConfigurationError):
            DeadlineBreaker(deadline=0.0)

    def test_breaker_reset(self):
        breaker = DeadlineBreaker(deadline=5.0)
        breaker.tripped = "was open"
        breaker.reset()
        assert breaker.tripped is None


class TestCoverageReport:
    def test_validate_catches_bad_split(self):
        report = CoverageReport(
            requested=3, completed=1, partial=1, failed=0,
            answers_expected=9, answers_collected=4,
        )
        with pytest.raises(AssertionError):
            report.validate()

    def test_summary_mentions_counts(self):
        report = CoverageReport(
            requested=4, completed=2, partial=1, failed=1,
            answers_expected=12, answers_collected=7,
        )
        report.validate()
        assert "2/4 tasks complete" in report.summary()
        assert not report.complete

    def test_failure_info_str(self):
        info = FailureInfo("t1", reason="retries_exhausted", attempts=3,
                           outcomes=["abandoned", "timeout", "abandoned"])
        text = str(info)
        assert "t1" in text and "3 attempt(s)" in text and "timeout" in text


class TestCheckpointRoundTrip:
    def test_snapshot_restore_preserves_future_randomness(self, tmp_path):
        # Run half the workload, checkpoint, finish; then rebuild a fresh
        # world, restore, finish — the second halves must match exactly.
        tasks = make_tasks(16)
        first, second = tasks[:8], tasks[8:]

        original = make_world()
        original.scheduler.run(first, redundancy=3)
        Checkpoint.capture(original).save(tmp_path)
        tail_a = original.scheduler.run(second, redundancy=3)

        restored = make_world()
        Checkpoint.load(tmp_path).restore(restored)
        tail_b = restored.scheduler.run(make_tasks(16)[8:], redundancy=3)

        assert fingerprint(original, tail_a.answers) == fingerprint(
            restored, tail_b.answers
        )

    def test_restore_rebuilds_answer_log_and_spend(self, tmp_path):
        original = make_world(budget=10.0)
        original.scheduler.run(make_tasks(8), redundancy=3)
        Checkpoint.capture(original).save(tmp_path)

        restored = make_world(budget=10.0)
        Checkpoint.load(tmp_path).restore(restored)
        assert len(restored.answers) == len(original.answers)
        assert restored.stats.cost_spent == pytest.approx(original.stats.cost_spent)
        assert restored.remaining_budget == pytest.approx(original.remaining_budget)

    def test_snapshot_with_per_worker_copies_restores(self, tmp_path):
        # Earlier releases also wrote each worker's ``earned`` and the
        # stats' ``answers_by_worker``, copies of the answer log that
        # restore now ignores.
        original = make_world(budget=10.0)
        original.scheduler.run(make_tasks(8), redundancy=3)
        checkpoint = Checkpoint.capture(original)
        for snap in checkpoint.state["pool"]["workers"]:
            snap["earned"] = 0.5
        checkpoint.state["platform"]["stats"]["answers_by_worker"] = {"rw0": 99}
        checkpoint.save(tmp_path)

        restored = make_world(budget=10.0)
        Checkpoint.load(tmp_path).restore(restored)
        assert restored.answers == original.answers
        assert restored.stats.answers_collected == original.stats.answers_collected
        for task_id in {a.task_id for a in original.answers}:
            assert restored.answers_for(task_id) == original.answers_for(task_id)

    def test_answer_from_a_worker_outside_the_pool_raises(self):
        original = make_world()
        original.scheduler.run(make_tasks(4), redundancy=3)
        checkpoint = Checkpoint.capture(original)
        checkpoint.state["platform"]["answers"][0]["worker_id"] = "nobody"
        with pytest.raises(CheckpointError, match="unknown worker 'nobody'"):
            checkpoint.restore(make_world())

    def test_load_missing_directory_raises(self, tmp_path):
        with pytest.raises(CheckpointError):
            Checkpoint.load(tmp_path / "nope")

    def test_extra_payload_round_trips(self, tmp_path):
        platform = make_world()
        Checkpoint.capture(platform, extra={"statements_done": 4}).save(tmp_path)
        assert Checkpoint.load(tmp_path).extra["statements_done"] == 4


class TestKillAndResume:
    def test_simulated_crash_raises_after_checkpoint(self, tmp_path):
        platform = make_world()
        runner = CheckpointingRunner(platform, tmp_path, redundancy=3)
        with pytest.raises(SimulatedCrash):
            runner.run(make_tasks(24), kill_after=1)
        assert (tmp_path / "checkpoint.json").exists()

    def test_kill_and_resume_is_bit_identical(self, tmp_path):
        tasks = make_tasks(24)
        baseline_platform = make_world()
        baseline = CheckpointingRunner(
            baseline_platform, tmp_path / "base", redundancy=3
        ).run(tasks)

        crashed = make_world()
        with pytest.raises(SimulatedCrash):
            CheckpointingRunner(
                crashed, tmp_path / "crash", redundancy=3
            ).run(make_tasks(24), kill_after=1)

        resumed_platform = make_world()
        resumed = CheckpointingRunner(
            resumed_platform, tmp_path / "crash", redundancy=3
        ).run(make_tasks(24), resume=True)

        assert resumed.resumed and resumed.chunks_done == baseline.chunks_done
        assert fingerprint(baseline_platform, baseline.answers) == fingerprint(
            resumed_platform, resumed.answers
        )

    def test_kill_and_resume_under_faults(self, tmp_path):
        # The full harness: outage + churn + delivery faults + stragglers,
        # killed after one chunk, resumed on a fresh platform.
        assert verify_kill_resume(7, str(tmp_path))

    def test_resume_rejects_redundancy_mismatch(self, tmp_path):
        platform = make_world()
        with pytest.raises(SimulatedCrash):
            CheckpointingRunner(platform, tmp_path, redundancy=3).run(
                make_tasks(16), kill_after=1
            )
        fresh = make_world()
        with pytest.raises(CheckpointError):
            CheckpointingRunner(fresh, tmp_path, redundancy=4).run(
                make_tasks(16), resume=True
            )

    def test_churn_joiners_survive_restore(self, tmp_path):
        plan = FaultPlan(
            seed=5,
            outages=(OutageWindow(start=100.0, end=300.0),),
            churn=WorkerChurn(leave_rate=0.05, join_rate=0.6),
            delivery=DeliveryFaults(duplicate_rate=0.05, late_rate=0.1),
            stragglers=StragglerSpikes(rate=0.1, multiplier=8.0),
        )
        platform = make_world(seed=5)
        platform.attach_faults(plan)
        with pytest.raises(SimulatedCrash):
            CheckpointingRunner(platform, tmp_path, redundancy=3).run(
                make_tasks(24, seed=5), kill_after=2
            )
        joined = {w.worker_id for w in platform.pool if w.worker_id.startswith("j")}

        fresh = make_world(seed=5)
        fresh.attach_faults(plan)
        CheckpointingRunner(fresh, tmp_path, redundancy=3).run(
            make_tasks(24, seed=5), resume=True
        )
        restored = {w.worker_id for w in fresh.pool if w.worker_id.startswith("j")}
        assert joined <= restored


class TestFailurePolicyParse:
    def test_parse_accepts_enum_and_string(self):
        assert FailurePolicy.parse("degrade") is FailurePolicy.DEGRADE
        assert FailurePolicy.parse(FailurePolicy.SKIP) is FailurePolicy.SKIP

    def test_parse_error_lists_options(self):
        with pytest.raises(ConfigurationError) as excinfo:
            FailurePolicy.parse("explode")
        assert "fail" in str(excinfo.value) and "degrade" in str(excinfo.value)
