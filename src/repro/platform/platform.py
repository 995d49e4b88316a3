"""The simulated crowdsourcing platform (an AMT stand-in).

:class:`SimulatedPlatform` is the single choke point through which every
crowd answer in the library flows. It owns:

* the worker pool and per-task assignment sampling,
* budget accounting (every answer costs its task's reward),
* the answer log used by truth inference and worker quality control,
* an optional discrete-event timeline for latency experiments.

Two usage modes mirror how real requesters interact with platforms:

* **batch** — :meth:`collect`: publish tasks with redundancy *k*; the
  platform's :class:`~repro.platform.batch.BatchScheduler` gathers *k*
  answers per task from distinct workers. Every platform has a scheduler
  (one lane, fault-free, unless configured otherwise), so every batch
  collection passes through the same cost, latency, fault and
  failure-policy machinery.
* **online** — :meth:`worker_stream` + :meth:`ask`: workers "arrive" one at
  a time and an assignment strategy decides which task each gets (the
  QASCA/CDAS regime in :mod:`repro.quality.assignment`). :meth:`ask`
  serves only that regime and the arrival timeline
  (:meth:`simulate_timeline`); every operator buys through :meth:`collect`.
"""

from __future__ import annotations

import math
import threading
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

from repro.errors import BudgetExceededError, NoWorkersAvailableError, PlatformError
from repro.obs.metrics import Counter, MetricsRegistry
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.platform.events import EventSimulator
from repro.platform.pricing import PriceResponseModel, PricingPolicy
from repro.platform.task import Answer, Task

if TYPE_CHECKING:  # imported lazily to avoid a package-level cycle with workers
    from repro.faults.injector import FaultInjector
    from repro.faults.plan import FaultPlan
    from repro.platform.batch import BatchConfig, BatchRecord, BatchScheduler
    from repro.platform.cache import AnswerCache, CacheResolution
    from repro.platform.task import HIT
    from repro.workers.pool import WorkerPool
    from repro.workers.worker import Worker

# PlatformStats attribute -> backing metric name. The registry is the one
# source of truth; the attributes below are generated property views.
_STAT_METRICS = {
    "answers_collected": "platform.answers_collected",
    "tasks_published": "platform.tasks_published",
    "cost_spent": "platform.cost_spent",
    "batches_dispatched": "batch.batches_dispatched",
    "assignments_dispatched": "batch.assignments_dispatched",
    "assignments_retried": "batch.assignments_retried",
    "assignments_timed_out": "batch.assignments_timed_out",
    "assignments_abandoned": "batch.assignments_abandoned",
    "batch_makespan": "batch.makespan",
    "batch_wall_clock": "batch.wall_clock",
    "batch_outage_wait": "batch.outage_wait",
    "hedges_launched": "batch.hedges_launched",
    "hedges_won": "batch.hedges_won",
    "hedges_lost": "batch.hedges_lost",
    "hedges_cancelled": "batch.hedges_cancelled",
    "hedge_cost_refunded": "batch.hedge_cost_refunded",
    "tasks_cancelled": "batch.tasks_cancelled",
    "cancel_cost_refunded": "batch.cancel_cost_refunded",
    "cache_hits": "cache.hits",
    "cache_misses": "cache.misses",
    "cache_coalesced": "cache.coalesced",
    "cache_evictions": "cache.evictions",
    "cache_answers_reused": "cache.answers_reused",
    "cache_cost_saved": "cache.cost_saved",
}


class PlatformStats:
    """Running totals the requester can inspect at any time.

    The scalar counters (``answers_collected``, ``cost_spent``, the batch
    counters, ...) live in a :class:`~repro.obs.metrics.MetricsRegistry`;
    the attributes here are property views onto it, so ``engine.stats``
    and ``engine.metrics`` can never disagree. Each view binds its
    registry counter on first use (creating the series, as a registry
    lookup would) and reuses the handle from then on.
    """

    def __init__(self, metrics: MetricsRegistry | None = None):
        self.metrics = metrics if metrics is not None else MetricsRegistry(enabled=False)
        self.answers_by_worker: dict[str, int] = defaultdict(int)
        self._counters: dict[str, Counter] = {}  # metric name -> bound handle

    def record_batch(self, record: "BatchRecord") -> None:
        """Fold one dispatched batch into the totals (called once per batch
        by :meth:`~repro.platform.batch.BatchScheduler.run`)."""
        self.batches_dispatched += 1
        self.assignments_dispatched += record.dispatched
        self.assignments_retried += record.retried
        self.assignments_timed_out += record.timed_out
        self.assignments_abandoned += record.abandoned
        self.batch_makespan += record.makespan
        self.batch_wall_clock += record.wall_clock
        self.batch_outage_wait += record.outage_wait
        self.hedges_launched += record.hedged
        self.hedges_won += record.hedges_won
        self.hedges_lost += record.hedges_lost
        self.hedges_cancelled += record.hedges_cancelled
        self.hedge_cost_refunded += record.hedge_refund

    def batch_summary(self) -> str:
        """One-line human-readable batch accounting (empty if unused)."""
        if not self.batches_dispatched:
            return ""
        summary = (
            f"{self.batches_dispatched} batches, "
            f"{self.assignments_dispatched} assignments "
            f"({self.assignments_retried} retried, "
            f"{self.assignments_timed_out} timed out, "
            f"{self.assignments_abandoned} abandoned), "
            f"simulated makespan {self.batch_makespan:.1f}s"
        )
        if self.hedges_launched:
            summary += (
                f", {self.hedges_launched} hedges "
                f"({self.hedges_won} won, {self.hedges_lost} lost, "
                f"{self.hedges_cancelled} cancelled, "
                f"refunded {self.hedge_cost_refunded:.4f})"
            )
        if self.tasks_cancelled:
            summary += (
                f", {int(self.tasks_cancelled)} HITs cancelled "
                f"(saved {self.cancel_cost_refunded:.4f})"
            )
        return summary

    def cache_summary(self) -> str:
        """One-line answer-cache accounting (empty when the cache saw no traffic)."""
        if not (self.cache_hits or self.cache_misses or self.cache_coalesced):
            return ""
        return (
            f"{self.cache_hits} hits, {self.cache_misses} misses, "
            f"{self.cache_coalesced} coalesced, "
            f"{self.cache_answers_reused} answers reused, "
            f"saved {self.cache_cost_saved:.4f}, "
            f"{self.tasks_published} tasks published"
        )


def _stat_property(metric_name: str) -> property:
    def bind(stats: PlatformStats) -> Counter:
        counter = stats._counters[metric_name] = stats.metrics.counter(metric_name)
        return counter

    def fget(self: PlatformStats):
        try:
            return self._counters[metric_name].value
        except KeyError:
            return bind(self).value

    def fset(self: PlatformStats, value) -> None:
        try:
            self._counters[metric_name].value = value
        except KeyError:
            bind(self).value = value

    return property(fget, fset)


for _attr, _metric in _STAT_METRICS.items():
    setattr(PlatformStats, _attr, _stat_property(_metric))
del _attr, _metric


@dataclass
class TimelineResult:
    """Outcome of a discrete-event latency simulation."""

    makespan: float
    answers: list[Answer]
    completion_times: dict[str, float]
    rounds: int = 1

    def percentile(self, q: float) -> float:
        """q-th percentile of per-task completion times."""
        if not self.completion_times:
            return 0.0
        return float(np.percentile(list(self.completion_times.values()), q))


class SimulatedPlatform:
    """An in-process crowdsourcing marketplace backed by simulated workers.

    Args:
        pool: The worker population.
        budget: Maximum total spend; answers beyond it raise
            :class:`~repro.errors.BudgetExceededError`.
        pricing: Reward policy stamped onto published tasks.
        seed: Seed for the platform's own RNG (assignment sampling and the
            workers' answer randomness both derive from it, so a seeded
            platform is fully reproducible).
        batch: Configuration of the platform's batch scheduler; the
            one-lane, fault-free :class:`~repro.platform.batch.BatchConfig`
            default when omitted.
        tracer: Span tracer threaded through operators, the batch runtime,
            and the event timeline; the no-op tracer when omitted.
        metrics: Registry backing :class:`PlatformStats` and the extra
            telemetry histograms; a disabled registry when omitted.
        event_log_limit: Cap on the discrete-event simulator's in-memory
            log (None = unbounded, the historical behaviour).
    """

    def __init__(
        self,
        pool: WorkerPool,
        budget: float = math.inf,
        pricing: PricingPolicy | None = None,
        seed: int | None = None,
        batch: "BatchConfig | None" = None,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        event_log_limit: int | None = None,
    ):
        self.pool = pool
        self.budget = budget
        self.pricing = pricing or PricingPolicy()
        self.rng = np.random.default_rng(seed)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else MetricsRegistry(enabled=False)
        self.event_log_limit = event_log_limit
        self.stats = PlatformStats(metrics=self.metrics)
        self.answers: list[Answer] = []
        self._answers_by_task: dict[str, list[Answer]] = defaultdict(list)
        self._tasks: dict[str, Task] = {}
        self.faults: "FaultInjector | None" = None
        self.cache: "AnswerCache | None" = None
        # Multi-tenant service seam: when a tenant account is active, every
        # charge is additionally checked and booked against it, atomically
        # with the global budget check (the lock is what makes two tenants
        # unable to jointly overspend a shared platform).
        self._charge_lock = threading.Lock()
        self._active_account: "object | None" = None
        self.attach_scheduler(batch)  # sets self.scheduler; never None

    def attach_scheduler(self, config: "BatchConfig | None") -> "BatchScheduler":
        """Install (or replace) the batch execution runtime on this platform;
        None installs the one-lane, fault-free default."""
        from repro.platform.batch import BatchScheduler

        self.scheduler = BatchScheduler(self, config)
        return self.scheduler

    def attach_faults(self, plan: "FaultPlan | None") -> "FaultInjector | None":
        """Install (or clear, with None) a fault-injection plan.

        Faults act on the batch scheduler's seams, which every operator's
        collection passes through; HIT batches (:meth:`collect_batched`),
        online assignment (:meth:`ask`) and :meth:`simulate_timeline`
        never see them.
        """
        from repro.faults.injector import FaultInjector

        self.faults = FaultInjector(plan) if plan is not None else None
        return self.faults

    def attach_cache(self, cache: "AnswerCache | None") -> "AnswerCache | None":
        """Install (or clear, with None) the content-addressed answer cache.

        The cache's counters are rebound onto this platform's registry so
        the ``cache_*`` views on :class:`PlatformStats` and the cache object
        always agree. Only ask-and-close collection (``scheduler.run``, and
        so :meth:`collect`, with ``complete=True``) consults the cache;
        callers keeping tasks open for more evidence (the adaptive filter's
        waves, Deco's dependent fetches), HIT batches, and online
        assignment (:meth:`ask`) never do.
        """
        if cache is not None:
            cache.rebind_metrics(self.metrics)
        self.cache = cache
        return cache

    # ------------------------------------------------------------------ #
    # Publishing & bookkeeping
    # ------------------------------------------------------------------ #

    def publish(self, tasks: Sequence[Task]) -> None:
        """Register tasks and stamp rewards from the pricing policy."""
        for task in tasks:
            if task.task_id in self._tasks:
                raise PlatformError(f"task {task.task_id} already published")
            task.reward = self.pricing.price(task)
            self._tasks[task.task_id] = task
        self.stats.tasks_published += len(tasks)

    def task(self, task_id: str) -> Task:
        """Look up a published task by id."""
        try:
            return self._tasks[task_id]
        except KeyError:
            raise PlatformError(f"unknown task {task_id!r}") from None

    def answers_for(self, task_id: str) -> list[Answer]:
        """All answers gathered so far for one task."""
        return list(self._answers_by_task[task_id])

    @property
    def remaining_budget(self) -> float:
        return self.budget - self.stats.cost_spent

    @contextmanager
    def charging_account(self, account: "object | None") -> Iterator[None]:
        """Attribute every charge in the block to *account* (a tenant).

        *account* duck-types two methods: ``check(amount)`` (raise
        :class:`~repro.errors.BudgetExceededError` without mutating when
        the tenant budget cannot cover *amount*) and ``add(amount)``
        (book the spend). The multi-tenant service wraps each work unit
        in this; single-requester callers never enter it, so the plain
        path is untouched.
        """
        previous = self._active_account
        self._active_account = account
        try:
            yield
        finally:
            self._active_account = previous

    def _charge(self, amount: float) -> None:
        # Serialized check-then-spend: without the lock two concurrent
        # charges could both pass the budget test and jointly overspend.
        # Both ledgers (global and tenant) are checked before either is
        # mutated, so a failed charge leaves no partial booking.
        with self._charge_lock:
            if self.stats.cost_spent + amount > self.budget + 1e-12:
                raise BudgetExceededError(
                    f"budget {self.budget:.4f} exhausted "
                    f"(spent {self.stats.cost_spent:.4f}, need {amount:.4f} more)"
                )
            account = self._active_account
            if account is not None:
                account.check(amount)
                self.stats.cost_spent += amount
                account.add(amount)
            else:
                self.stats.cost_spent += amount

    # ------------------------------------------------------------------ #
    # Answer cache seam (consulted by the batch scheduler)
    # ------------------------------------------------------------------ #

    def cache_resolve(
        self, tasks: Sequence[Task], redundancy: int, complete: bool = True
    ) -> "CacheResolution | None":
        """Partition a request against the cache; None when it can't apply.

        Only ask-and-close requests participate: a ``complete=False``
        caller is buying *additional* evidence for tasks it keeps open, so
        serving its own earlier answers back would be self-poisoning.
        """
        if self.cache is None or not complete:
            return None
        return self.cache.resolve(tasks, redundancy)

    def cache_finish(
        self,
        resolution: "CacheResolution",
        answers: dict[str, list[Answer]],
        complete: bool = True,
    ) -> None:
        """Store fresh answers, fan out to duplicates, merge hits, account.

        Cache-served answers never touch the platform answer log, worker
        histories, ``answers_collected``, or the budget — they represent no
        new crowd work. Saved cost is valued at the pricing policy's rate
        for each reused answer. The ``answer_cache`` span is emitted only
        when reuse actually happened, so a reuse-free run's trace tree is
        bit-identical to a cache-off run.
        """
        self.cache.apply(resolution, answers, complete=complete)
        if not resolution.reused:
            return
        saved = 0.0
        for task in resolution.hit_tasks:
            saved += self.pricing.price(task) * len(answers.get(task.task_id, ()))
        for dups in resolution.duplicates.values():
            for dup in dups:
                saved += self.pricing.price(dup) * len(answers.get(dup.task_id, ()))
        self.stats.cache_cost_saved += saved
        account = self._active_account
        if account is not None:
            account.credit_saved(saved)
        if self.tracer.enabled:
            with self.tracer.span(
                "answer_cache",
                hits=len(resolution.hits),
                coalesced=resolution.coalesced_count,
                saved=round(saved, 6),
            ):
                pass

    # ------------------------------------------------------------------ #
    # Answer collection
    # ------------------------------------------------------------------ #

    def ask(self, task: Task, worker: Worker | None = None, now: float = 0.0) -> Answer:
        """Obtain one answer for *task*, charging its reward.

        When *worker* is None, a uniformly random active worker who has not
        yet answered this task is chosen. Online assignment
        (:mod:`repro.quality.assignment`) and :meth:`simulate_timeline` use
        this; it bypasses the scheduler, so no fault, retry, failure policy,
        breaker or cache applies.
        """
        if task.task_id not in self._tasks:
            self.publish([task])
        if not task.is_open:
            raise PlatformError(f"task {task.task_id} is not open")
        if worker is None:
            done = {a.worker_id for a in self._answers_by_task[task.task_id]}
            worker = self.pool.sample(1, exclude=done)[0]
        self._charge(task.reward)
        answer = worker.submit(task, self.rng, now=now)
        self.answers.append(answer)
        self._answers_by_task[task.task_id].append(answer)
        self.stats.answers_collected += 1
        self.stats.answers_by_worker[worker.worker_id] += 1
        return answer

    def collect(
        self,
        tasks: Sequence[Task],
        redundancy: int = 3,
        complete: bool = True,
    ) -> dict[str, list[Answer]]:
        """Batch mode: gather *redundancy* answers per task from distinct workers.

        Runs :meth:`~repro.platform.batch.BatchScheduler.run` and returns
        its {task_id: [answers]}. Tasks are completed afterwards unless
        *complete* is False. A task that cannot be completed follows the
        scheduler's failure policy: ``fail`` raises, ``degrade`` returns
        its partial (possibly empty) list, ``skip`` leaves it out.
        """
        if redundancy < 1:
            raise PlatformError(f"redundancy must be >= 1, got {redundancy}")
        return self.scheduler.run(tasks, redundancy=redundancy, complete=complete).answers

    def collect_batched(
        self,
        hits: Sequence["HIT"],
        redundancy: int = 3,
        fatigue: "FatigueModel | None" = None,
    ) -> dict[str, list[Answer]]:
        """Batch mode over HITs: one worker answers a whole HIT in sequence.

        Each assignment gives one worker every task of the HIT, in
        presentation order. With a :class:`~repro.cost.taskdesign.
        FatigueModel`, the worker's answer at slot k degrades: with
        probability ``1 - multiplier(k)`` the answer is replaced by a
        uniform random option (model-agnostic fatigue — effective accuracy
        becomes ``multiplier * base + (1 - multiplier) / |options|``).

        Returns {task_id: [answers]} like :meth:`collect`. Cost accounting
        is identical (per-answer reward); what batching *saves* in reality
        is worker-engagement overhead, which :mod:`repro.cost.taskdesign`
        models for planning.
        """
        from repro.platform.task import HIT  # local import, avoids cycle

        if redundancy < 1:
            raise PlatformError(f"redundancy must be >= 1, got {redundancy}")
        if redundancy > len(self.pool.active_workers):
            raise NoWorkersAvailableError(
                f"redundancy {redundancy} exceeds pool of "
                f"{len(self.pool.active_workers)}"
            )
        result: dict[str, list[Answer]] = defaultdict(list)
        for hit in hits:
            if not isinstance(hit, HIT):
                raise PlatformError("collect_batched expects HIT objects")
            self.publish([t for t in hit.tasks if t.task_id not in self._tasks])
            workers = self.pool.sample(redundancy)
            for worker in workers:
                for slot, task in enumerate(hit.tasks):
                    if not task.is_open:
                        raise PlatformError(f"task {task.task_id} is not open")
                    degraded = (
                        fatigue is not None
                        and task.options
                        and self.rng.random() > fatigue.multiplier(slot)
                    )
                    self._charge(task.reward)
                    if degraded:
                        # Fatigued slip: uniform random option, bypassing
                        # the worker's answer model.
                        value = task.options[int(self.rng.integers(len(task.options)))]
                        duration = worker.latency.service_time(self.rng)
                        answer = Answer(
                            task_id=task.task_id,
                            worker_id=worker.worker_id,
                            value=value,
                            submitted_at=duration,
                            duration=duration,
                            reward_paid=task.reward,
                        )
                        worker.history.append(answer)
                        worker.earned += task.reward
                    else:
                        answer = worker.submit(task, self.rng)
                    self.answers.append(answer)
                    self._answers_by_task[task.task_id].append(answer)
                    self.stats.answers_collected += 1
                    self.stats.answers_by_worker[worker.worker_id] += 1
                    result[task.task_id].append(answer)
            for task in hit.tasks:
                if task.is_open:
                    task.complete()
        return dict(result)

    def worker_stream(self) -> Iterator[Worker]:
        """Online mode: an endless arrival stream of active workers.

        Arrival order is a random interleaving (uniform over active workers
        with no two consecutive repeats when avoidable), which is the
        standard online-assignment arrival model.
        """
        last: str | None = None
        while True:
            actives = self.pool.active_workers
            if not actives:
                raise NoWorkersAvailableError("no active workers remain")
            candidates = [w for w in actives if w.worker_id != last] or actives
            worker = candidates[int(self.rng.integers(len(candidates)))]
            last = worker.worker_id
            yield worker

    # ------------------------------------------------------------------ #
    # Latency timeline
    # ------------------------------------------------------------------ #

    def simulate_timeline(
        self,
        tasks: Sequence[Task],
        redundancy: int = 1,
        price_response: PriceResponseModel | None = None,
        horizon: float = 1e9,
        departure_probability: float = 0.0,
    ) -> TimelineResult:
        """Run a discrete-event timeline for answering *tasks*.

        Workers arrive per their Poisson rates (optionally scaled by the
        price-response model evaluated at each task's reward); each arrival
        claims the next outstanding assignment and completes it after a
        sampled service time. A task's completion time is when its last of
        *redundancy* answers lands. Returns the makespan and per-task
        completion times. Costs are charged exactly as in batch mode.

        *departure_probability* models pool attrition: after each completed
        assignment the worker leaves this timeline for good with that
        probability (they are NOT deactivated in the pool — attrition is a
        per-job phenomenon). A drained pool leaves tasks uncompleted; the
        returned ``completion_times`` simply omits them, which is the
        signal the pool-maintenance techniques react to.
        """
        if not 0.0 <= departure_probability < 1.0:
            raise PlatformError("departure_probability must be in [0, 1)")
        self.publish([t for t in tasks if t.task_id not in self._tasks])
        # Copy-major order: every task gets its first answer before any task
        # gets its second — the wave structure hedged replication relies on.
        pending: list[tuple[Task, int]] = [(t, i) for i in range(redundancy) for t in tasks]
        answered_by: dict[str, set[str]] = defaultdict(set)
        answers_needed = {t.task_id: redundancy for t in tasks}
        completion: dict[str, float] = {}
        collected: list[Answer] = []

        sim = EventSimulator(tracer=self.tracer, max_log=self.event_log_limit)
        mean_reward = float(np.mean([t.reward for t in tasks])) if tasks else 0.0
        multiplier = (
            price_response.rate_multiplier(mean_reward) if price_response is not None else 1.0
        )
        for worker in self.pool.active_workers:
            delay = worker.latency.inter_arrival(self.rng) / multiplier
            sim.schedule(delay, "arrival", worker_id=worker.worker_id)

        def handle(event, simulator) -> None:
            if event.kind != "arrival":
                return
            worker = self.pool.worker(event.payload["worker_id"])
            # Claim the first pending assignment this worker hasn't done.
            claim_index = None
            for i, (task, _copy) in enumerate(pending):
                if worker.worker_id not in answered_by[task.task_id]:
                    claim_index = i
                    break
            departed = False
            if claim_index is not None:
                task, _copy = pending.pop(claim_index)
                answered_by[task.task_id].add(worker.worker_id)
                answer = self.ask(task, worker, now=simulator.now)
                collected.append(answer)
                if departure_probability > 0.0 and self.rng.random() < departure_probability:
                    departed = True
            if pending and not departed:
                delay = worker.latency.inter_arrival(self.rng) / multiplier
                simulator.schedule(delay, "arrival", worker_id=worker.worker_id)

        with self.tracer.span(
            "timeline", sim_start=0.0, tasks=len(tasks), redundancy=redundancy
        ) as span:
            sim.run(handle, until=horizon)
            span.set_tag("events", len(sim.log))
            span.sim_end = sim.now
        # Completion = when the redundancy-th answer *arrives* (answers are
        # claimed in queue order but may land out of order).
        arrival_times: dict[str, list[float]] = defaultdict(list)
        for answer in collected:
            arrival_times[answer.task_id].append(answer.submitted_at)
        for task in tasks:
            times = sorted(arrival_times.get(task.task_id, ()))
            needed = answers_needed[task.task_id]
            if len(times) >= needed:
                completion[task.task_id] = times[needed - 1]
        makespan = max(completion.values(), default=0.0)
        return TimelineResult(makespan=makespan, answers=collected, completion_times=completion)
