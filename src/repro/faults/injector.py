"""Fault injector: applies a :class:`~repro.faults.plan.FaultPlan` at the
platform/batch seams.

The injector is deliberately *stateless*: every random decision draws from
a throwaway generator seeded by ``(plan seed, decision domain, decision
key)``, where the key is a stable identifier (the global batch index, the
assignment's RNG stream id). Three properties fall out:

* the same plan produces the same faults at any ``max_parallel``;
* a checkpointed-and-resumed run sees exactly the faults the
  uninterrupted run would have seen (nothing to snapshot);
* operator logic never changes — the scheduler consults the injector at
  its existing seams (batch start, attempt execution, answer commit).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.faults.plan import FaultPlan
from repro.platform.task import Answer, Task
from repro.workers.worker import Worker

if TYPE_CHECKING:
    from repro.platform.platform import SimulatedPlatform

# Decision domains: keep derived streams disjoint per fault family.
_DOMAIN_CHURN = 1
_DOMAIN_STRAGGLER = 2
_DOMAIN_DELIVERY = 3


class FaultInjector:
    """Evaluates a fault plan against a live platform."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan

    def _rng(self, domain: int, key: int) -> np.random.Generator:
        return np.random.default_rng([self.plan.seed, domain, key])

    # ------------------------------------------------------------------ #
    # Batch-boundary faults (caller thread, deterministic order)
    # ------------------------------------------------------------------ #

    def outage_delay(self, now: float) -> float:
        """Simulated seconds a batch starting at *now* stalls for outages."""
        return self.plan.outage_delay(now)

    def on_batch_start(
        self,
        batch_index: int,
        platform: "SimulatedPlatform",
        redundancy: int,
    ) -> list[str]:
        """Apply churn and budget shocks due before *batch_index*.

        Returns human-readable event strings (also mirrored into the
        platform's metrics and tracer by the caller).
        """
        events: list[str] = []
        churn = self.plan.churn
        if churn is not None and (churn.leave_rate > 0 or churn.join_rate > 0):
            rng = self._rng(_DOMAIN_CHURN, batch_index)
            events.extend(self._apply_churn(rng, batch_index, platform, redundancy))
        factor = self.plan.shock_factor(batch_index)
        if factor is not None and np.isfinite(platform.budget):
            before = platform.budget
            remaining = max(0.0, platform.budget - platform.stats.cost_spent)
            platform.budget = platform.stats.cost_spent + remaining * factor
            events.append(
                f"budget shock x{factor:.2f}: ceiling {before:.4f} -> {platform.budget:.4f}"
            )
            platform.metrics.inc("faults.budget_shocks")
        return events

    def _apply_churn(
        self,
        rng: np.random.Generator,
        batch_index: int,
        platform: "SimulatedPlatform",
        redundancy: int,
    ) -> list[str]:
        churn = self.plan.churn
        assert churn is not None
        events: list[str] = []
        pool = platform.pool
        floor = max(churn.min_pool, redundancy)
        # Departures: iterate the pool in stable order so the draw sequence
        # is identical at any parallelism.
        for worker in list(pool):
            if not worker.active:
                continue
            if rng.random() < churn.leave_rate and len(pool.active_workers) > floor:
                pool.deactivate(worker.worker_id)
                events.append(f"worker {worker.worker_id} left")
                platform.metrics.inc("faults.worker_leaves")
        # Arrivals: Poisson-many joiners with deterministic ids, so a
        # resumed run reconstructs the exact same pool membership.
        joins = int(rng.poisson(churn.join_rate)) if churn.join_rate > 0 else 0
        low, high = churn.join_accuracy
        for i in range(joins):
            accuracy = float(rng.uniform(low, high))
            worker_id = f"j{self.plan.seed}b{batch_index}n{i}"
            if worker_id in pool:
                continue  # resume replayed this batch boundary already
            from repro.workers.models import OneCoinModel

            pool.add_worker(Worker(model=OneCoinModel(accuracy), worker_id=worker_id))
            events.append(f"worker {worker_id} joined (accuracy {accuracy:.2f})")
            platform.metrics.inc("faults.worker_joins")
        return events

    # ------------------------------------------------------------------ #
    # Attempt-level faults (may run on worker threads — derived RNG only)
    # ------------------------------------------------------------------ #

    def perturb_duration(self, stream: int, duration: float) -> tuple[float, bool]:
        """Apply straggler spikes to an attempt's sampled service time.

        Returns (possibly inflated duration, straggled?). Keyed by the
        assignment's global RNG stream id, so the decision is identical
        under any thread interleaving.
        """
        spikes = self.plan.stragglers
        if spikes is None or spikes.rate <= 0.0:
            return duration, False
        rng = self._rng(_DOMAIN_STRAGGLER, stream)
        if rng.random() < spikes.rate:
            return duration * spikes.multiplier, True
        return duration, False

    # ------------------------------------------------------------------ #
    # Delivery faults (commit path: caller thread, deterministic order)
    # ------------------------------------------------------------------ #

    def deliver(
        self, answer: Answer, task: Task, stream: int
    ) -> tuple[Answer, list[Answer], list[str]]:
        """Possibly corrupt/delay/duplicate one committed answer.

        Returns ``(delivered, duplicates, fault_names)`` where *delivered*
        replaces the original answer and *duplicates* are extra uncharged
        copies to append to the log (``reward_paid=0`` — platforms do not
        double-bill duplicate deliveries).
        """
        delivery = self.plan.delivery
        if delivery is None:
            return answer, [], []
        rng = self._rng(_DOMAIN_DELIVERY, stream)
        faults: list[str] = []
        value = answer.value
        submitted_at = answer.submitted_at
        if delivery.corrupt_rate > 0 and rng.random() < delivery.corrupt_rate and task.options:
            value = task.options[int(rng.integers(len(task.options)))]
            faults.append("corrupted")
        if delivery.late_rate > 0 and rng.random() < delivery.late_rate:
            submitted_at += delivery.late_delay
            faults.append("late")
        delivered = answer
        if faults:
            delivered = Answer(
                answer.task_id,
                answer.worker_id,
                value,
                submitted_at,
                answer.duration,
                answer.reward_paid,
            )
        duplicates: list[Answer] = []
        if delivery.duplicate_rate > 0 and rng.random() < delivery.duplicate_rate:
            duplicates.append(
                Answer(
                    delivered.task_id,
                    delivered.worker_id,
                    delivered.value,
                    delivered.submitted_at,
                    delivered.duration,
                    0.0,
                )
            )
            faults.append("duplicated")
        return delivered, duplicates, faults
