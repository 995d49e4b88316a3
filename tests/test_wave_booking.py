"""A scheduler wave books exactly what it booked with dataclass answers.

``BatchScheduler._commit_wave`` charges each answer through
``SimulatedPlatform._charge``, books it through ``record_answer``, and
records a wave's latency samples and a batch's retry counts in one call
each. Each scenario below runs out of budget part-way through a wave
(under every failure policy, under a tenant account, with a delivery fault
plan, and with hedging) and is compared with ``tests/data/wave-booking.json``:
the spend bit for bit, the answer log, the answers returned, completion
times, failures, the raised error, every counter, and the
``batch.assignment_latency`` and ``batch.retries_per_task`` samples.

The record was printed by ``python3 tests/test_wave_booking.py`` on the
scheduler as it was when answers were frozen dataclasses, ``_charge`` read
``cost_spent`` through its property view and each histogram sample had its
own ``observe`` call; it is read, never rewritten.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro.errors import CrowdDMError
from repro.faults.plan import DeliveryFaults, FaultPlan
from repro.obs.metrics import MetricsRegistry
from repro.platform.batch import BatchConfig
from repro.platform.platform import SimulatedPlatform
from repro.platform.task import Task, TaskType
from repro.service.tenancy import TenantAccount
from repro.workers.pool import WorkerPool

RECORD = Path(__file__).parent / "data" / "wave-booking.json"

#: 24 tasks x 3 answers at 0.01 each would cost 0.72.
BUDGET = 0.305

#: name -> (failure policy, budget holder, fault plan, hedging, budget).
#: A budget of exactly 0.3 lets the 30th answer through only by the
#: 1e-12 slack: thirty float adds of 0.01 make 0.30000000000000004.
SCENARIOS = {
    "fail": ("fail", "platform", False, False, BUDGET),
    "skip": ("skip", "platform", False, False, BUDGET),
    "degrade": ("degrade", "platform", False, False, BUDGET),
    "exact-fail": ("fail", "platform", False, False, 0.3),
    "tenant-fail": ("fail", "tenant", False, False, BUDGET),
    "tenant-degrade": ("degrade", "tenant", False, False, BUDGET),
    "faults-degrade": ("degrade", "platform", True, False, BUDGET),
    "hedge-skip": ("skip", "platform", False, True, BUDGET),
}


def book(name: str) -> dict:
    """Run scenario *name*; return everything its waves booked, with task
    and worker ids replaced by their indexes (ids come from process-wide
    counters)."""
    policy, holder, faulty, hedged, budget = SCENARIOS[name]
    pool = WorkerPool.uniform(10, accuracy=0.8, seed=71)
    metrics = MetricsRegistry(enabled=True)
    platform = SimulatedPlatform(
        pool,
        budget=budget if holder == "platform" else math.inf,
        seed=72,
        batch=BatchConfig(
            batch_size=8,
            max_parallel=2,
            retry_limit=4,
            abandon_rate=0.25,
            assignment_timeout=120.0,
            seed=73,
            failure_policy=policy,
            hedge_enabled=hedged,
            hedge_min_samples=4,
        ),
        metrics=metrics,
    )
    if faulty:
        platform.attach_faults(
            FaultPlan(
                seed=74,
                delivery=DeliveryFaults(duplicate_rate=0.3, late_rate=0.3, corrupt_rate=0.3),
            )
        )
    tasks = [
        Task(TaskType.SINGLE_CHOICE, question=f"q{i}", options=tuple("abc"), truth="abc"[i % 3])
        for i in range(24)
    ]
    task_index = {task.task_id: i for i, task in enumerate(tasks)}
    worker_index = {worker.worker_id: i for i, worker in enumerate(pool.workers)}
    account = TenantAccount("tenant", budget) if holder == "tenant" else None
    error = result = None
    try:
        with platform.charging_account(account):
            result = platform.scheduler.run(tasks, redundancy=3)
    except CrowdDMError as exc:
        error = [type(exc).__name__, str(exc)]
    booked = {
        "spent": platform.stats.cost_spent,
        "account_spent": None if account is None else account.spent,
        "log": [
            [task_index[a.task_id], worker_index[a.worker_id], a.value,
             a.submitted_at, a.duration, a.reward_paid]
            for a in platform.answers
        ],
        "error": error,
        "counters": {  # every counter but the real seconds spent dispatching
            key: value
            for key, value in metrics.snapshot()["counters"].items()
            if key != "batch.wall_clock"
        },
        "latency": metrics.histogram("batch.assignment_latency").values,
        "retries_per_task": metrics.histogram("batch.retries_per_task").values,
    }
    if result is not None:

        def by_task(mapping: dict) -> list:
            return sorted((task_index[task_id], value) for task_id, value in mapping.items())

        booked["answers"] = {
            i: [[worker_index[a.worker_id], a.value] for a in answers]
            for i, answers in by_task(result.answers)
        }
        booked["completion_times"] = dict(by_task(result.completion_times))
        booked["failures"] = {
            i: [info.reason, info.attempts, list(info.outcomes)]
            for i, info in by_task(result.failures)
        }
    # Through JSON, as the record was written: integer keys become strings.
    return json.loads(json.dumps(booked))


@pytest.fixture(scope="module")
def record() -> dict:
    return json.loads(RECORD.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_wave_books_what_the_record_holds(name, record):
    booked = book(name)
    recorded = record[name]
    # Field by field first, so a failure names what moved.
    for key in recorded:
        assert booked.get(key) == recorded[key], key
    assert booked == recorded


def test_every_scenario_runs_out_of_budget_part_way(record):
    """Each scenario spends something, and no ledger can cover the whole job."""
    for name, recorded in record.items():
        ledger = "spent" if recorded["account_spent"] is None else "account_spent"
        assert 0 < recorded[ledger] <= SCENARIOS[name][4] + 1e-12, name
        policy = SCENARIOS[name][0]
        if policy == "fail":
            assert recorded["error"][0] == "BudgetExceededError", name
        else:
            reasons = {failure[0] for failure in recorded["failures"].values()}
            assert "budget_exhausted" in reasons, name


if __name__ == "__main__":
    # One line per scenario field, so a diff of the record names the field.
    scenarios = []
    for name in sorted(SCENARIOS):
        booked = book(name)
        fields = ",\n".join(
            f"  {json.dumps(key)}: {json.dumps(booked[key], sort_keys=True)}"
            for key in sorted(booked)
        )
        scenarios.append(f" {json.dumps(name)}: {{\n{fields}\n }}")
    print("{\n" + ",\n".join(scenarios) + "\n}")
