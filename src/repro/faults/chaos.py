"""Chaos harness: run the crowd pipeline under randomized fault plans.

One :func:`run_chaos` call builds a fully deterministic world (explicit
worker and task ids — nothing leaks from process-global counters),
attaches a :func:`~repro.faults.plan.random_plan` derived from the seed,
and runs a degrade-policy batch collection behind budget and deadline
circuit breakers. It then asserts the *survival contract*:

* no unhandled exception escapes the scheduler;
* accounting stays coherent (the answer log, the stats counters, and the
  money spent all agree);
* the coverage report sums correctly;
* the same seed reproduces a bit-identical outcome digest.

CI runs this over a handful of seeds (``python -m repro chaos``); local
hunts can turn ``intensity`` up and sweep wider seed ranges.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.faults.plan import FaultPlan, random_plan
from repro.obs.metrics import MetricsRegistry
from repro.platform.batch import BatchConfig
from repro.platform.platform import SimulatedPlatform
from repro.platform.task import Task, TaskType
from repro.recovery.breakers import BudgetBreaker, DeadlineBreaker
from repro.recovery.degrade import DegradedResult
from repro.workers.models import OneCoinModel
from repro.workers.pool import WorkerPool
from repro.workers.worker import Worker

# Fault metrics folded into the report (and the digest) when present.
_FAULT_METRICS = (
    "faults.outage_delays",
    "faults.worker_leaves",
    "faults.worker_joins",
    "faults.budget_shocks",
    "faults.stragglers",
    "faults.duplicated",
    "faults.late",
    "faults.corrupted",
    "recovery.breaker_trips",
    "recovery.tasks_failed",
)

#: Mitigation strategies `run_chaos` / `verify_kill_resume` accept.
MITIGATIONS = ("none", "hedge")


def _check_mitigation(mitigation: str) -> bool:
    """Validate the strategy name; True when hedging should be enabled."""
    if mitigation not in MITIGATIONS:
        raise ConfigurationError(
            f"unknown mitigation {mitigation!r}; available: {MITIGATIONS}"
        )
    return mitigation == "hedge"


@dataclass
class ChaosReport:
    """Outcome of one chaos run: survival, coverage, and a replay digest."""

    seed: int
    plan: FaultPlan
    result: DegradedResult
    fault_counts: dict[str, int] = field(default_factory=dict)
    checks: list[str] = field(default_factory=list)
    digest: str = ""
    mitigation: str = "none"
    makespan: float = 0.0   # simulated seconds across all batches
    cost: float = 0.0       # budget actually spent
    hedges: int = 0         # hedge copies launched (0 under mitigation="none")

    @property
    def survived(self) -> bool:
        """True when every coherence check passed (exceptions never get here)."""
        return True

    def summary(self) -> str:
        """One line per chaos run for CI logs."""
        active = ", ".join(
            f"{name.split('.', 1)[1]}={count}"
            for name, count in self.fault_counts.items()
            if count
        )
        line = (
            f"seed {self.seed}: {self.result.coverage.summary()}; "
            f"faults [{active or 'none'}]; "
            f"makespan {self.makespan:.0f}s, cost {self.cost:.4f}"
        )
        if self.mitigation != "none":
            line += f"; mitigation {self.mitigation} ({self.hedges} hedges)"
        return line + f"; digest {self.digest[:12]}"


def _build_world(seed: int, n_workers: int, budget: float) -> SimulatedPlatform:
    """A platform whose every identity is derived from the seed.

    Worker ids are explicit (``cw0``, ``cw1``, ...) so two chaos runs in
    the same process — where the global worker-id counter has advanced —
    still produce byte-identical outcomes.
    """
    import numpy as np

    rng = np.random.default_rng([seed, 0xC0FFEE])
    workers = [
        Worker(
            model=OneCoinModel(float(rng.uniform(0.55, 0.95))),
            worker_id=f"cw{i}",
        )
        for i in range(n_workers)
    ]
    pool = WorkerPool(workers, seed=seed)
    platform = SimulatedPlatform(
        pool,
        budget=budget,
        seed=seed + 1,
        metrics=MetricsRegistry(enabled=True),
    )
    return platform


def _make_tasks(seed: int, n_tasks: int) -> list[Task]:
    return [
        Task(
            TaskType.SINGLE_CHOICE,
            question=f"chaos question {i}",
            options=("yes", "no"),
            truth="yes" if (seed + i) % 2 == 0 else "no",
            task_id=f"chaos-s{seed}-t{i}",
        )
        for i in range(n_tasks)
    ]


def _check(condition: bool, label: str, checks: list[str]) -> None:
    if not condition:
        raise AssertionError(f"chaos coherence check failed: {label}")
    checks.append(label)


def run_chaos(
    seed: int,
    intensity: float = 1.0,
    n_tasks: int = 40,
    n_workers: int = 12,
    redundancy: int = 3,
    budget: float = 2.5,
    deadline: float = 50_000.0,
    plan: FaultPlan | None = None,
    mitigation: str = "none",
) -> ChaosReport:
    """Run one seeded chaos experiment and verify the survival contract.

    Raises ``AssertionError`` if any coherence check fails; any other
    exception escaping means the pipeline did not survive the fault plan.
    ``mitigation="hedge"`` turns on speculative straggler re-issue, so the
    suite can report makespan/cost deltas per strategy across seeds.
    """
    hedge = _check_mitigation(mitigation)
    plan = plan if plan is not None else random_plan(seed, intensity)
    platform = _build_world(seed, n_workers, budget)
    platform.attach_scheduler(
        BatchConfig(
            batch_size=8,
            max_parallel=4,
            retry_limit=2,
            assignment_timeout=240.0,
            abandon_rate=0.05,
            seed=seed + 2,
            failure_policy="degrade",
            hedge_enabled=hedge,
        )
    )
    platform.attach_faults(plan)
    scheduler = platform.scheduler
    scheduler.breakers = [
        BudgetBreaker(reserve=budget * 0.02),
        DeadlineBreaker(deadline=deadline),
    ]
    tasks = _make_tasks(seed, n_tasks)
    run = scheduler.run(tasks, redundancy=redundancy)
    result = DegradedResult.from_answers(tasks, run.answers, run.failures, redundancy)

    checks: list[str] = []
    stats = platform.stats
    _check(
        stats.answers_collected == len(platform.answers),
        "answers_collected matches the answer log",
        checks,
    )
    _check(
        abs(stats.cost_spent - sum(a.reward_paid for a in platform.answers)) < 1e-9,
        "cost_spent equals the sum of rewards paid",
        checks,
    )
    _check(
        stats.cost_spent <= platform.budget + 1e-9,
        "spend never exceeds the (possibly shocked) budget",
        checks,
    )
    result.coverage.validate()
    checks.append("coverage report sums correctly")
    _check(
        set(result.answers) == {t.task_id for t in tasks},
        "degrade keeps a key for every requested task",
        checks,
    )
    _check(
        sum(len(a) for a in result.answers.values()) == result.coverage.answers_collected,
        "coverage answer count matches the result",
        checks,
    )

    fault_counts = {
        name: int(platform.metrics.counter(name).value) for name in _FAULT_METRICS
    }
    return ChaosReport(
        seed=seed,
        plan=plan,
        result=result,
        fault_counts=fault_counts,
        checks=checks,
        digest=_digest(result, stats, fault_counts),
        mitigation=mitigation,
        makespan=stats.batch_makespan,
        cost=stats.cost_spent,
        hedges=stats.hedges_launched,
    )


def _digest(result: DegradedResult, stats, fault_counts: dict[str, int]) -> str:
    """Deterministic digest of a chaos outcome (excludes wall-clock)."""
    payload = {
        "answers": {
            task_id: [
                [a.worker_id, repr(a.value), round(a.submitted_at, 9),
                 round(a.duration, 9), a.reward_paid]
                for a in answers
            ]
            for task_id, answers in sorted(result.answers.items())
        },
        "failures": {
            task_id: [info.reason, info.attempts, list(info.outcomes)]
            for task_id, info in sorted(result.failures.items())
        },
        "coverage": [
            result.coverage.requested,
            result.coverage.completed,
            result.coverage.partial,
            result.coverage.failed,
            result.coverage.answers_collected,
        ],
        "stats": {
            "answers_collected": stats.answers_collected,
            "cost_spent": round(stats.cost_spent, 9),
            "batches_dispatched": stats.batches_dispatched,
            "assignments_dispatched": stats.assignments_dispatched,
            "assignments_retried": stats.assignments_retried,
            "assignments_timed_out": stats.assignments_timed_out,
            "assignments_abandoned": stats.assignments_abandoned,
            "batch_makespan": round(stats.batch_makespan, 6),
            "batch_outage_wait": round(stats.batch_outage_wait, 6),
            "hedges_launched": stats.hedges_launched,
            "hedges_won": stats.hedges_won,
            "hedges_lost": stats.hedges_lost,
            "hedges_cancelled": stats.hedges_cancelled,
            "hedge_cost_refunded": round(stats.hedge_cost_refunded, 9),
        },
        "faults": fault_counts,
    }
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _outcome_fingerprint(platform: SimulatedPlatform, outcome) -> str:
    """Digest of a checkpointed run's answers/failures/stats (no wall-clock)."""
    stats = platform.stats
    payload = {
        "answers": {
            task_id: [
                [a.worker_id, repr(a.value), round(a.submitted_at, 9),
                 round(a.duration, 9), a.reward_paid]
                for a in answers
            ]
            for task_id, answers in sorted(outcome.answers.items())
        },
        "failures": {
            task_id: [info.reason, info.attempts, list(info.outcomes)]
            for task_id, info in sorted(outcome.failures.items())
        },
        "stats": {
            "answers_collected": stats.answers_collected,
            "cost_spent": round(stats.cost_spent, 9),
            "assignments_dispatched": stats.assignments_dispatched,
            "assignments_retried": stats.assignments_retried,
            "assignments_timed_out": stats.assignments_timed_out,
            "assignments_abandoned": stats.assignments_abandoned,
            "batch_makespan": round(stats.batch_makespan, 6),
            "batch_outage_wait": round(stats.batch_outage_wait, 6),
            "hedges_launched": stats.hedges_launched,
            "hedges_won": stats.hedges_won,
            "hedges_lost": stats.hedges_lost,
            "hedges_cancelled": stats.hedges_cancelled,
            "hedge_cost_refunded": round(stats.hedge_cost_refunded, 9),
        },
    }
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def _resumable_world(
    seed: int, n_workers: int, budget: float, plan: FaultPlan, hedge: bool = False
) -> SimulatedPlatform:
    """A chaos world with a degrade-policy scheduler and faults attached."""
    platform = _build_world(seed, n_workers, budget)
    platform.attach_scheduler(
        BatchConfig(
            batch_size=8,
            max_parallel=3,
            retry_limit=2,
            assignment_timeout=240.0,
            abandon_rate=0.05,
            seed=seed + 2,
            failure_policy="degrade",
            hedge_enabled=hedge,
        )
    )
    platform.attach_faults(plan)
    return platform


def verify_kill_resume(
    seed: int,
    workdir: str,
    n_tasks: int = 24,
    n_workers: int = 10,
    redundancy: int = 3,
    kill_after: int = 1,
    intensity: float = 1.0,
    mitigation: str = "none",
) -> bool:
    """Prove kill-and-resume bit-identity under a randomized fault plan.

    Runs the same seeded chaos workload twice — once uninterrupted, once
    killed after *kill_after* chunks and resumed on a **freshly built**
    platform (the moral equivalent of a new process) — and returns True
    when both runs produce identical answers, failure records, and
    platform stats (wall-clock excluded). *workdir* holds the two
    checkpoint directories. ``mitigation="hedge"`` verifies the contract
    with hedging live (the checkpoint then carries the hedge state).
    """
    from pathlib import Path

    from repro.errors import SimulatedCrash
    from repro.recovery.runner import CheckpointingRunner

    hedge = _check_mitigation(mitigation)
    plan = random_plan(seed, intensity)
    budget = 50.0
    tasks = _make_tasks(seed, n_tasks)

    baseline_platform = _resumable_world(seed, n_workers, budget, plan, hedge=hedge)
    baseline = CheckpointingRunner(
        baseline_platform, Path(workdir) / "baseline", redundancy=redundancy
    ).run(tasks)

    crash_dir = Path(workdir) / "crashed"
    crashed_platform = _resumable_world(seed, n_workers, budget, plan, hedge=hedge)
    try:
        CheckpointingRunner(
            crashed_platform, crash_dir, redundancy=redundancy
        ).run(tasks, kill_after=kill_after)
    except SimulatedCrash:
        pass
    resumed_platform = _resumable_world(seed, n_workers, budget, plan, hedge=hedge)
    resumed = CheckpointingRunner(
        resumed_platform, crash_dir, redundancy=redundancy
    ).run(_make_tasks(seed, n_tasks), resume=True)

    return _outcome_fingerprint(baseline_platform, baseline) == _outcome_fingerprint(
        resumed_platform, resumed
    )


def chaos_suite(
    seeds: "list[int] | range",
    intensity: float = 1.0,
    **kwargs,
) -> list[ChaosReport]:
    """Run :func:`run_chaos` over several seeds, collecting every report."""
    return [run_chaos(seed, intensity=intensity, **kwargs) for seed in seeds]
