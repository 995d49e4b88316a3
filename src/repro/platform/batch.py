"""Batched task runtime for the simulated platform.

Real crowd platforms do not hand out one microtask at a time: requesters
post *batches* of HITs, many assignments are in flight at once, workers
abandon or time out on some of them, and the platform re-posts those until
a retry limit is hit (the Reprowd / human-powered-sorts-and-joins regime).
:class:`BatchScheduler` brings that execution model to the simulation:

* pending tasks are grouped into batches of ``batch_size``;
* each batch's assignments are drawn one after another on the caller's
  thread and stamped onto a simulated clock with ``max_parallel`` lanes,
  so *simulated* makespan shrinks as lanes grow — a lane is a quantity of
  the simulated clock, never a thread;
* per-assignment faults — worker abandonment (``abandon_rate``) and
  service times exceeding ``assignment_timeout`` — trigger bounded
  retry-with-exponential-backoff on a fresh worker, and exhausting the
  retry budget raises :class:`~repro.errors.RetryExhaustedError`.

Every platform has a scheduler, and :meth:`SimulatedPlatform.collect` is
a thin call to :meth:`BatchScheduler.run`, so every batch collection
passes through this module.

Determinism: planning (worker sampling) happens in task order, so the
pool's RNG stream is consumed identically at any lane count. With
``max_parallel=1`` each assignment then draws its service time and its
answer from the platform RNG in dispatch order — the same draws as a
plain sequential loop of ``worker.submit(task, platform.rng)`` over the
sampled workers. With ``max_parallel>1`` every assignment draws from its
own stream: the one a generator seeded with ``[seed, stream]`` starts
(``Generator(PCG64(SeedSequence([seed, stream])))``, for its global stream
id) — a different (equally valid) random stream than the single-lane one.
No generator is built per assignment: each wave's stream ids are seeded in
one vectorized pass and one reusable generator is re-positioned onto each
in turn (:mod:`repro.platform.streams`), with the same draws as a freshly
seeded generator. The two rules stay split because a shared stream at
every lane count measurably changes the hedging benchmark's outcome (see
DESIGN.md).

Tail-latency control (``hedge_enabled``): the scheduler fits per-task-type
lognormal completion-time models online (:class:`HedgeState`, built on
:mod:`repro.latency.statistical`) and, when a completed attempt ran past
the fitted straggler threshold, speculatively re-issues the task on a
fresh worker ("hedging"). First answer wins — the losing copy is
*cancelled* (its cost refunded, counted separately from abandonment).
Hedge decisions are derived purely from the deterministic observation
stream and the pool RNG, so a seed replay — or a kill-and-resume whose
checkpoint carries :meth:`HedgeState.export_state` — reproduces the exact
same hedges, winners, and stats. With ``hedge_enabled=False`` (default)
every code path and RNG draw is bit-identical to the pre-hedging runtime.
"""

from __future__ import annotations

import math
import numbers
import time
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.errors import (
    BudgetExceededError,
    ConfigurationError,
    NoWorkersAvailableError,
    RetryExhaustedError,
)
from repro.platform.streams import StreamGenerator
from repro.platform.task import Answer, Task
from repro.recovery.degrade import FailureInfo, FailurePolicy

if TYPE_CHECKING:  # avoid import cycles with platform/workers
    from repro.obs.metrics import Counter, Histogram, MetricsRegistry
    from repro.platform.platform import SimulatedPlatform
    from repro.recovery.breakers import CircuitBreaker
    from repro.workers.worker import Worker


def check_seed(seed: object, *, optional: bool = True) -> None:
    """Raise :class:`ConfigurationError` unless *seed* is a non-negative int.

    numpy seeds only from non-negative integers, so a bad seed is refused
    before anything is built instead of failing mid-run (and, for the
    batch runtime, only at some lane counts). *optional* also admits None.
    """
    if seed is None and optional:
        return
    if not isinstance(seed, numbers.Integral) or seed < 0:
        expected = "None or a non-negative int" if optional else "a non-negative int"
        raise ConfigurationError(f"seed must be {expected}, got {seed!r}")


@dataclass(frozen=True)
class BatchConfig:
    """Knobs of the batch execution runtime.

    Attributes:
        batch_size: Tasks grouped into one dispatch wave.
        max_parallel: Simulated-clock lanes: how many assignments the
            simulated clock overlaps. Draws always run on the caller's
            thread. 1 draws from the platform RNG in dispatch order.
        retry_limit: Retries per assignment after the first attempt.
        assignment_timeout: Simulated seconds after which an in-flight
            assignment is reclaimed and retried; None disables timeouts.
        abandon_rate: Probability a worker silently abandons an assignment
            (fault injection; 0 disables it).
        retry_backoff: Base simulated delay before retry r, growing as
            ``retry_backoff * 2**(r-1)``.
        seed: Entropy for the per-assignment RNG streams used when
            ``max_parallel > 1``: None or a non-negative int. A stream's
            entropy is ``[seed, stream]``, or ``[stream]`` when None.
        failure_policy: What happens when a task cannot be completed
            (retries exhausted, budget gone, breaker open): ``"fail"``
            raises, ``"skip"`` drops the task from the answers,
            ``"degrade"`` keeps partial answers and records failures (see
            :class:`~repro.recovery.degrade.FailurePolicy`).
        hedge_enabled: Speculatively re-issue in-flight stragglers once a
            per-task-type completion model is warm (see module docstring).
        hedge_percentile: Completion-time quantile beyond which a running
            attempt counts as a straggler and gets hedged.
        hedge_min_samples: Observations per task type required before the
            model is trusted; colder types never hedge.
    """

    batch_size: int = 32
    max_parallel: int = 1
    retry_limit: int = 2
    assignment_timeout: float | None = None
    abandon_rate: float = 0.0
    retry_backoff: float = 1.0
    seed: int | None = None
    failure_policy: str = "fail"
    hedge_enabled: bool = False
    hedge_percentile: float = 0.9
    hedge_min_samples: int = 20

    def __post_init__(self) -> None:
        check_seed(self.seed)
        if self.batch_size < 1:
            raise ConfigurationError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_parallel < 1:
            raise ConfigurationError(f"max_parallel must be >= 1, got {self.max_parallel}")
        if self.retry_limit < 0:
            raise ConfigurationError(f"retry_limit must be >= 0, got {self.retry_limit}")
        if self.assignment_timeout is not None and self.assignment_timeout <= 0:
            raise ConfigurationError(
                f"assignment_timeout must be positive or None, got {self.assignment_timeout}"
            )
        if not 0.0 <= self.abandon_rate <= 1.0:
            raise ConfigurationError(f"abandon_rate must be in [0, 1], got {self.abandon_rate}")
        if self.retry_backoff < 0:
            raise ConfigurationError(
                f"retry_backoff must be non-negative, got {self.retry_backoff}"
            )
        if not 0.0 < self.hedge_percentile < 1.0:
            raise ConfigurationError(
                f"hedge_percentile must be in (0, 1), got {self.hedge_percentile}"
            )
        if self.hedge_min_samples < 2:
            raise ConfigurationError(
                f"hedge_min_samples must be >= 2, got {self.hedge_min_samples}"
            )
        FailurePolicy.parse(self.failure_policy)  # raises ConfigurationError if unknown

    @property
    def faults_enabled(self) -> bool:
        return self.abandon_rate > 0.0 or self.assignment_timeout is not None


@dataclass
class BatchRecord:
    """Counters for one dispatched batch."""

    index: int
    tasks: int
    dispatched: int = 0       # assignment attempts sent out
    retried: int = 0          # attempts that were retries
    timed_out: int = 0
    abandoned: int = 0
    makespan: float = 0.0     # simulated seconds (lane model)
    wall_clock: float = 0.0   # real seconds spent dispatching
    outage_wait: float = 0.0  # simulated seconds stalled by a platform outage
    hedged: int = 0           # speculative hedge copies launched
    hedges_won: int = 0       # hedge copy answered first (primary cancelled)
    hedges_lost: int = 0      # primary answered first (hedge copy cancelled)
    hedges_cancelled: int = 0  # hedge copy faulted in flight; primary kept
    hedge_refund: float = 0.0  # cost refunded by cancelling losing copies


@dataclass
class BatchRunResult:
    """Outcome of one :meth:`BatchScheduler.run` call."""

    answers: dict[str, list[Answer]] = field(default_factory=dict)
    records: list[BatchRecord] = field(default_factory=list)
    makespan: float = 0.0
    completion_times: dict[str, float] = field(default_factory=dict)
    failures: dict[str, FailureInfo] = field(default_factory=dict)

    @property
    def degraded(self) -> bool:
        """True when at least one task could not be fully completed."""
        return bool(self.failures)

    @property
    def throughput(self) -> float:
        """Completed tasks per simulated second."""
        if self.makespan <= 0.0:
            return 0.0
        return len(self.completion_times) / self.makespan


@dataclass
class _Assignment:
    """One (task, worker) attempt tracked through execution."""

    task: Task
    worker: "Worker"
    order: int                # stable dispatch order within the wave
    stream: int               # global per-assignment RNG stream id
    attempt: int = 0          # 0 = first try
    # filled by execution:
    fault: str | None = None  # None | "timeout" | "abandoned"
    duration: float = 0.0     # simulated seconds the lane was occupied
    value: object = None
    straggled: bool = False   # duration inflated by an injected straggler spike
    # outcome history of this retry chain, shared across its assignments
    outcomes: list[str] = field(default_factory=list)
    # speculative hedge copy racing this attempt, if any
    hedge: "_Assignment | None" = None
    hedge_detect: float = 0.0  # simulated offset at which the hedge launched


class _BatchInstruments:
    """Handles on the series the scheduler records per assignment.

    Built once per batch when the registry is enabled, so the commit loop
    skips the registry's per-call label normalisation and key formatting.
    Each handle is resolved on first use: an outcome that never happens
    (``outcome="timeout"`` on a fault-free run) registers no series.
    """

    __slots__ = ("_metrics", "_outcomes", "_latency")

    def __init__(self, metrics: "MetricsRegistry") -> None:
        self._metrics = metrics
        self._outcomes: dict[str, Counter] = {}
        self._latency: Histogram | None = None

    def latency(self, seconds: float) -> None:
        if self._latency is None:
            self._latency = self._metrics.histogram("batch.assignment_latency")
        self._latency.observe(seconds)

    def outcome(self, outcome: str) -> None:
        counter = self._outcomes.get(outcome)
        if counter is None:
            counter = self._outcomes[outcome] = self._metrics.counter(
                "batch.assignment_outcomes", {"outcome": outcome}
            )
        counter.inc()


class HedgeState:
    """Online per-task-type completion models driving hedge decisions.

    Effective task durations are recorded in commit order (deterministic at
    any parallelism); thresholds come from a *robust* lognormal fit
    (:func:`repro.latency.statistical.fit_completion_model` with
    ``robust=True``) so an already-contaminated observation window still
    recognizes stragglers instead of chasing them. Under deadline pressure
    the escalation ladder lowers the detection percentile via
    :meth:`set_pressure`; pressure is *not* part of the exported state — it
    is recomputed from the simulated clock on every batch, which keeps
    kill-and-resume runs bit-identical.
    """

    def __init__(
        self,
        percentile: float = 0.9,
        min_samples: int = 20,
        window: int = 256,
    ):
        # Imported lazily: repro.latency's package __init__ pulls in the
        # offline mitigation module, which imports the platform package —
        # a module-level import here would complete that cycle.
        from repro.latency.statistical import fit_completion_model, straggler_threshold

        self._fit = fit_completion_model
        self._quantile = straggler_threshold
        self.percentile = percentile
        self.min_samples = min_samples
        self.window = window
        self._observations: dict[str, deque[float]] = {}
        self._pressure: float | None = None
        self._version = 0
        self._cache: dict[str, tuple[int, float]] = {}

    @property
    def effective_percentile(self) -> float:
        """The detection percentile currently in force (pressure-aware)."""
        return self._pressure if self._pressure is not None else self.percentile

    def set_pressure(self, active: bool, percentile: float) -> None:
        """Lower (or restore) the detection percentile under deadline pressure."""
        pressure = percentile if active else None
        if pressure != self._pressure:
            self._pressure = pressure
            self._version += 1

    def observe(self, task_type: str, duration: float) -> None:
        """Record one effective task duration for *task_type*."""
        if not math.isfinite(duration) or duration <= 0.0:
            return
        window = self._observations.get(task_type)
        if window is None:
            window = deque(maxlen=self.window)
            self._observations[task_type] = window
        window.append(float(duration))
        self._version += 1

    def threshold(self, task_type: str) -> float | None:
        """Straggler cutoff for *task_type*, or None while the model is cold."""
        window = self._observations.get(task_type)
        if window is None or len(window) < self.min_samples:
            return None
        cached = self._cache.get(task_type)
        if cached is not None and cached[0] == self._version:
            return cached[1]
        model = self._fit(list(window), robust=True)
        value = self._quantile(model, percentile=self.effective_percentile)
        self._cache[task_type] = (self._version, value)
        return value

    def export_state(self) -> dict:
        """JSON-serializable snapshot of the observation windows."""
        return {
            "observations": {
                kind: list(window) for kind, window in self._observations.items()
            },
        }

    def restore_state(self, state: dict) -> None:
        """Restore observation windows captured by :meth:`export_state`."""
        self._observations = {
            kind: deque((float(d) for d in window), maxlen=self.window)
            for kind, window in state.get("observations", {}).items()
        }
        self._cache.clear()
        self._version += 1


class BatchScheduler:
    """Dispatch task batches concurrently against a simulated platform.

    Args:
        platform: The marketplace supplying workers and bookkeeping.
        config: Runtime knobs; defaults are the sequential degenerate case.
    """

    def __init__(self, platform: "SimulatedPlatform", config: BatchConfig | None = None):
        self.platform = platform
        self.config = config or BatchConfig()
        self.records: list[BatchRecord] = []
        self.breakers: list["CircuitBreaker"] = []
        self.batches_run = 0  # lifetime batch count; survives checkpoint/resume
        self._clock = 0.0     # simulated time already consumed by past batches
        self._run_base = 0.0  # clock value when the current run() started
        self._streams = 0     # per-assignment RNG stream counter
        self._stream_rng = StreamGenerator()  # positioned per assignment above one lane
        self._budget_exhausted = False
        self.hedge_state: HedgeState | None = (
            HedgeState(
                percentile=self.config.hedge_percentile,
                min_samples=self.config.hedge_min_samples,
            )
            if self.config.hedge_enabled
            else None
        )
        self._shrink_redundancy = False
        self._deadline_stage = "normal"  # advanced by AdaptiveDeadlineBreaker

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    @property
    def parallel(self) -> bool:
        """True when assignments overlap on more than one simulated lane."""
        return self.config.max_parallel > 1

    @property
    def simulated_clock(self) -> float:
        """Total simulated seconds consumed by every batch dispatched so far."""
        return self._clock

    def apply_deadline_pressure(
        self, *, hedge: bool, shrink: bool, percentile: float
    ) -> None:
        """Escalation hook for adaptive deadline breakers.

        Idempotent, and derived by the caller purely from the simulated
        clock — safe to re-apply every batch, including the first batch
        after a checkpoint resume. ``hedge`` turns hedging on (creating a
        cold :class:`HedgeState` when the config left it off) and lowers
        the detection percentile to *percentile*; ``shrink`` additionally
        halves the effective redundancy of subsequent batches.
        """
        self._shrink_redundancy = shrink
        if hedge and self.hedge_state is None:
            self.hedge_state = HedgeState(
                percentile=self.config.hedge_percentile,
                min_samples=self.config.hedge_min_samples,
            )
        if self.hedge_state is not None:
            self.hedge_state.set_pressure(hedge, percentile)

    def run(
        self,
        tasks: Sequence[Task],
        redundancy: int = 3,
        complete: bool = True,
        *,
        cancel: Callable[[Task], str | None] | None = None,
        on_batch: Callable[[list[Task], BatchRunResult], None] | None = None,
    ) -> BatchRunResult:
        """Gather *redundancy* answers per task, batch by batch.

        Returns a :class:`BatchRunResult` whose ``answers`` mapping
        ({task_id: [answers]}) is what :meth:`SimulatedPlatform.collect`
        returns. Tasks are completed
        afterwards unless *complete* is False (round-structured callers keep
        them open for further answers).

        *cancel*, consulted for every still-pending task at each batch
        boundary, returns a reason string to drop the task before it is
        ever published (its would-be spend is refunded and counted in
        ``stats.tasks_cancelled`` / ``stats.cancel_cost_refunded``) or
        None to keep it queued. *on_batch* is invoked with a list of tasks
        and the running result, whose ``answers`` already hold theirs:
        first once with the cache hits, before the first wave, then after
        each successfully dispatched batch with the batch's tasks, letting
        streaming callers consume answers wave-by-wave. Neither hook fires
        when left as None, keeping the default path bit-identical to the
        hook-free runtime.

        Failure behaviour follows ``config.failure_policy``: under
        ``"fail"`` an assignment that cannot be completed raises
        (:class:`RetryExhaustedError`, :class:`BudgetExceededError`, ...);
        under ``"skip"``/``"degrade"`` the run always returns, with
        per-task :class:`~repro.recovery.degrade.FailureInfo` in
        ``result.failures`` — ``degrade`` keeps partial answers (every
        requested task id has a key, possibly an empty list) while
        ``skip`` drops failed tasks from the answers mapping entirely.
        Circuit breakers in :attr:`breakers` are consulted at batch
        boundaries when the policy is not ``"fail"``. A run that raises
        still stores the answers its cache misses got so far, so a re-run
        does not buy them again.
        """
        if redundancy < 1:
            raise ConfigurationError(f"redundancy must be >= 1, got {redundancy}")
        policy = FailurePolicy.parse(self.config.failure_policy)
        active = len(self.platform.pool.active_workers)
        if redundancy > active and policy is FailurePolicy.FAIL:
            raise NoWorkersAvailableError(
                f"redundancy {redundancy} exceeds pool of {active}"
            )
        result = BatchRunResult()
        self._run_base = self._clock  # completion times are relative to run start
        self._budget_exhausted = False
        size = self.config.batch_size
        tracer = self.platform.tracer
        injector = self.platform.faults
        # Answer-cache seam: hits are served without dispatching, in-flight
        # duplicates coalesce onto one canonical task, and only the misses
        # run below. resolution is None when no cache applies (none
        # attached, or a complete=False round-structured caller).
        resolution = self.platform.cache_resolve(tasks, redundancy, complete=complete)
        run_tasks = list(tasks) if resolution is None else resolution.misses
        if on_batch is not None and resolution is not None and resolution.hit_tasks:
            # Hits reach a streaming caller before the first wave, so its
            # cancel hook can drop the misses they make unnecessary.
            result.answers.update(resolution.hits)
            on_batch(list(resolution.hit_tasks), result)
        halted: str | None = None
        pending = deque(run_tasks)
        try:
            while pending:
                if cancel is not None:
                    kept: list[Task] = []
                    dropped: list[tuple[Task, str]] = []
                    for task in pending:
                        reason = cancel(task)
                        if reason is None:
                            kept.append(task)
                        else:
                            dropped.append((task, reason))
                    if dropped:
                        self._cancel_tasks(dropped, redundancy)
                    pending = deque(kept)
                    if not pending:
                        break
                batch = [pending.popleft() for _ in range(min(size, len(pending)))]
                if halted is None and self._budget_exhausted:
                    halted = "budget_exhausted"
                if halted is None and policy is not FailurePolicy.FAIL:
                    halted = self._check_breakers()
                if halted is not None:
                    for task in batch:
                        self._record_failure(result, FailureInfo(task.task_id, reason=halted))
                    continue
                # Advisory escalation pass (all policies): adaptive breakers may
                # tighten hedging or shrink redundancy *before* tripping. Plain
                # breakers inherit a no-op escalate(), so this is RNG-silent and
                # bit-identical for legacy configurations.
                for breaker in self.breakers:
                    stage = breaker.escalate(self.platform, self)
                    if stage is not None:
                        self.platform.metrics.inc("recovery.deadline_escalations")
                        if tracer.enabled:
                            tracer.annotate(
                                "breaker.escalate", breaker=breaker.name, stage=stage
                            )
                eff_redundancy = (
                    max(1, -(-redundancy // 2)) if self._shrink_redundancy else redundancy
                )
                if injector is not None:
                    for event in injector.on_batch_start(
                        self.batches_run, self.platform, eff_redundancy
                    ):
                        if tracer.enabled:
                            tracer.annotate("fault.injected", batch=self.batches_run, event=event)
                record = BatchRecord(index=len(self.records), tasks=len(batch))
                with tracer.span(
                    "batch",
                    sim_start=self._clock,
                    index=record.index,
                    tasks=len(batch),
                ) as span:
                    self._run_batch(batch, eff_redundancy, record, result, complete, policy)
                    span.set_tag("dispatched", record.dispatched)
                    span.set_tag("retried", record.retried)
                    span.set_tag("timed_out", record.timed_out)
                    span.set_tag("abandoned", record.abandoned)
                    if record.hedged:
                        span.set_tag("hedged", record.hedged)
                    span.set_tag("makespan", record.makespan)
                    if record.outage_wait:
                        span.set_tag("outage_wait", record.outage_wait)
                    span.sim_end = self._clock + record.makespan
                self.records.append(record)
                self.batches_run += 1
                self.platform.stats.record_batch(record)
                self._clock += record.makespan
                if on_batch is not None:
                    on_batch(batch, result)
        except BaseException:
            # A raising run keeps what it paid for: the canonical misses'
            # answers so far go into the cache, so a re-run buys only the
            # rest (a partial list is stored but does not serve).
            if resolution is not None:
                self.platform.cache.store_fresh(resolution, result.answers)
            raise
        result.makespan = sum(r.makespan for r in result.records)
        if resolution is not None:
            self.platform.cache_finish(resolution, result.answers, complete=complete)
            for task in resolution.hit_tasks:
                result.completion_times[task.task_id] = 0.0
            for canonical_id, dups in resolution.duplicates.items():
                landed = result.completion_times.get(canonical_id)
                failure = result.failures.get(canonical_id)
                for dup in dups:
                    if landed is not None:
                        # A coalesced duplicate lands when its canonical does.
                        result.completion_times[dup.task_id] = landed
                    if failure is not None:
                        self._record_failure(
                            result,
                            FailureInfo(
                                dup.task_id,
                                reason=failure.reason,
                                attempts=failure.attempts,
                                outcomes=list(failure.outcomes),
                            ),
                        )
        if policy is FailurePolicy.DEGRADE:
            for task in tasks:
                result.answers.setdefault(task.task_id, [])
        elif policy is FailurePolicy.SKIP:
            for task_id in result.failures:
                result.answers.pop(task_id, None)
        return result

    def _check_breakers(self) -> str | None:
        """The name of the first open breaker, or None to keep dispatching."""
        tracer = self.platform.tracer
        for breaker in self.breakers:
            reason = breaker.check(self.platform, self)
            if reason is not None:
                self.platform.metrics.inc("recovery.breaker_trips")
                if tracer.enabled:
                    tracer.annotate("breaker.open", breaker=breaker.name, reason=reason)
                return breaker.name
        return None

    def _record_failure(self, result: BatchRunResult, info: FailureInfo) -> None:
        """File *info* unless the task already has a recorded failure."""
        if info.task_id in result.failures:
            return
        result.failures[info.task_id] = info
        self.platform.metrics.inc("recovery.tasks_failed")
        if self.platform.tracer.enabled:
            self.platform.tracer.annotate(
                "task.failed", task_id=info.task_id, reason=info.reason
            )

    def _cancel_tasks(self, dropped: list[tuple[Task, str]], redundancy: int) -> None:
        """Drop still-pending tasks before publication and book the saving.

        *dropped* holds one cancel pass's ``(task, reason)`` pairs. A task
        was never published, priced, or charged, so its "refund" is spend
        *avoided*: the price it would have cost at the requested
        redundancy, added task by task in pass order. Counted in
        stats/metrics, once per pass and once per reason, so early
        termination shows up in batch summaries, the profiler, and
        Prometheus scrapes.
        """
        platform = self.platform
        stats = platform.stats
        refunded = stats.cancel_cost_refunded
        reasons: dict[str, int] = {}
        for task, reason in dropped:
            refunded += platform.pricing.price(task) * redundancy
            reasons[reason] = reasons.get(reason, 0) + 1
            if platform.tracer.enabled:
                platform.tracer.annotate(
                    "batch.cancel", task_id=task.task_id, reason=reason
                )
        stats.tasks_cancelled += len(dropped)
        stats.cancel_cost_refunded = refunded
        for reason, count in reasons.items():
            platform.metrics.inc("batch.cancellations", count, labels={"reason": reason})

    # ------------------------------------------------------------------ #
    # One batch
    # ------------------------------------------------------------------ #

    def _run_batch(
        self,
        batch: list[Task],
        redundancy: int,
        record: BatchRecord,
        result: BatchRunResult,
        complete: bool,
        policy: FailurePolicy = FailurePolicy.FAIL,
    ) -> None:
        started = time.perf_counter()
        platform = self.platform
        platform.publish([t for t in batch if t.task_id not in platform._tasks])
        result.records.append(record)

        # A platform outage stalls the whole batch until the window ends:
        # every lane starts at the delay instead of zero.
        outage = 0.0
        if platform.faults is not None:
            outage = platform.faults.outage_delay(self._clock)
            if outage > 0.0:
                record.outage_wait = outage
                platform.metrics.inc("faults.outage_delays")
                platform.metrics.observe("faults.outage_wait", outage)
                if platform.tracer.enabled:
                    platform.tracer.annotate(
                        "fault.outage", sim_start=self._clock, wait=outage
                    )

        # Plan the whole wave first: the pool RNG stream is consumed in
        # task order at any lane count. Workers who have already answered a
        # task (round-structured callers) are excluded, which is a no-op for
        # fresh tasks.
        wave: list[_Assignment] = []
        order = 0
        for task in batch:
            answered = {a.worker_id for a in platform._answers_by_task[task.task_id]}
            for worker in self._plan_workers(task, redundancy, answered, policy, result):
                wave.append(self._assignment(task, worker, order))
                order += 1

        attempted: dict[str, set[str]] = {t.task_id: set() for t in batch}
        lanes = [outage] * self.config.max_parallel
        tracer = platform.tracer
        metrics = platform.metrics
        instruments = _BatchInstruments(metrics) if metrics.enabled else None
        retry_counts: dict[str, int] = {}
        while wave:
            self._execute_wave(wave)
            # Hedge planning happens in wave order (pool RNG determinism),
            # then the hedge copies run as one mini-wave after their
            # primaries.
            if self.hedge_state is not None:
                hedges = self._plan_hedges(wave, attempted)
                if hedges:
                    self._execute_wave(hedges)
            retries: list[_Assignment] = []
            for a in wave:
                task_id = a.task.task_id
                record.dispatched += 1
                if a.attempt > 0:
                    record.retried += 1
                if a.straggled:
                    metrics.inc("faults.stragglers")
                attempted[task_id].add(a.worker.worker_id)
                backoff = (
                    self.config.retry_backoff * 2 ** (a.attempt - 1) if a.attempt else 0.0
                )
                winner, effective, outcome = a, a.duration, None
                if a.hedge is not None:
                    winner, effective, outcome = self._resolve_hedge(a)
                lane = min(range(len(lanes)), key=lanes.__getitem__)
                finished = lanes[lane] + backoff + effective
                lanes[lane] = finished
                if outcome is not None:
                    self._account_hedge(a, outcome, effective, record, attempted, lanes)
                if a.fault is None:
                    if self._budget_exhausted:
                        self._record_failure(
                            result, FailureInfo(task_id, reason="budget_exhausted")
                        )
                        continue
                    try:
                        self._commit(winner, result, finished)
                    except BudgetExceededError:
                        if policy is FailurePolicy.FAIL:
                            raise
                        self._budget_exhausted = True
                        self._record_failure(
                            result, FailureInfo(task_id, reason="budget_exhausted")
                        )
                        continue
                    if self.hedge_state is not None:
                        self.hedge_state.observe(a.task.task_type.value, effective)
                    if instruments is not None:
                        instruments.latency(winner.duration)
                        instruments.outcome("ok")
                else:
                    if a.fault == "timeout":
                        record.timed_out += 1
                    else:
                        record.abandoned += 1
                    if instruments is not None:
                        instruments.outcome(a.fault)
                    a.outcomes.append(a.fault)
                    retry_counts[task_id] = retry_counts.get(task_id, 0) + 1
                    if tracer.enabled:
                        tracer.annotate(
                            "batch.retry",
                            task_id=task_id,
                            attempt=a.attempt + 1,
                            reason=a.fault,
                        )
                    if self._budget_exhausted:
                        self._record_failure(
                            result, FailureInfo(task_id, reason="budget_exhausted")
                        )
                        continue
                    try:
                        retries.append(self._retry(a, attempted[task_id], order))
                        order += 1
                    except RetryExhaustedError as exc:
                        if policy is FailurePolicy.FAIL:
                            raise
                        self._record_failure(
                            result,
                            FailureInfo(
                                task_id,
                                reason="retries_exhausted",
                                attempts=exc.attempts,
                                outcomes=list(exc.outcomes),
                            ),
                        )
                    except NoWorkersAvailableError:
                        if policy is FailurePolicy.FAIL:
                            raise
                        self._record_failure(
                            result,
                            FailureInfo(
                                task_id,
                                reason="no_workers",
                                attempts=a.attempt + 1,
                                outcomes=list(a.outcomes),
                            ),
                        )
            wave = retries
        if instruments is not None:
            retries_per_task = metrics.histogram("batch.retries_per_task")
            for task in batch:
                retries_per_task.observe(retry_counts.get(task.task_id, 0))
        if complete:
            for task in batch:
                if task.is_open:
                    task.complete()
        record.makespan = max(lanes)
        record.wall_clock = time.perf_counter() - started

    def _plan_workers(
        self,
        task: Task,
        redundancy: int,
        answered: set[str],
        policy: FailurePolicy,
        result: BatchRunResult,
    ) -> "list[Worker]":
        """Sample *redundancy* workers; degrade to fewer when the pool is short.

        Under the ``fail`` policy a short pool raises exactly as before;
        otherwise the task proceeds with however many eligible workers
        remain (zero means an immediate ``no_workers`` failure record).
        """
        pool = self.platform.pool
        try:
            return pool.sample(redundancy, exclude=answered)
        except NoWorkersAvailableError:
            if policy is FailurePolicy.FAIL:
                raise
        eligible = [
            w for w in pool.active_workers if w.worker_id not in answered
        ]
        if not eligible:
            self._record_failure(
                result, FailureInfo(task.task_id, reason="no_workers")
            )
            return []
        return pool.sample(len(eligible), exclude=answered)

    # ------------------------------------------------------------------ #
    # Hedging (speculative straggler re-issue)
    # ------------------------------------------------------------------ #

    def _plan_hedges(
        self, wave: list[_Assignment], attempted: dict[str, set[str]]
    ) -> list[_Assignment]:
        """Attach a speculative copy to each straggling successful attempt.

        Runs in wave order, so the pool RNG stream is identical at any
        lane count. Faulted attempts are left to the retry path; a pool
        with no spare eligible worker skips the hedge without consuming
        RNG (``pool.sample`` raises before drawing).
        """
        state = self.hedge_state
        wave_workers: dict[str, set[str]] = {}
        for a in wave:
            wave_workers.setdefault(a.task.task_id, set()).add(a.worker.worker_id)
        hedges: list[_Assignment] = []
        for a in wave:
            if a.fault is not None:
                continue
            threshold = state.threshold(a.task.task_type.value)
            if threshold is None or a.duration <= threshold:
                continue
            task_id = a.task.task_id
            answered = {
                ans.worker_id for ans in self.platform._answers_by_task[task_id]
            }
            exclude = attempted[task_id] | wave_workers[task_id] | answered
            try:
                worker = self.platform.pool.sample(1, exclude=exclude)[0]
            except NoWorkersAvailableError:
                continue
            hedge = self._assignment(a.task, worker, a.order, attempt=a.attempt)
            a.hedge = hedge
            a.hedge_detect = threshold
            hedges.append(hedge)
        return hedges

    def _resolve_hedge(
        self, a: _Assignment
    ) -> "tuple[_Assignment, float, str]":
        """First answer wins: pick the surviving copy of a hedged attempt.

        Returns ``(winner, effective_duration, outcome)`` where *outcome*
        labels the fate of the hedge copy: ``"won"`` (hedge answered first,
        primary cancelled), ``"lost"`` (primary answered first, hedge
        cancelled), or ``"cancelled"`` (hedge faulted in flight — never
        counted as a timeout/abandonment, never retried).
        """
        hedge = a.hedge
        if hedge.fault is not None:
            return a, a.duration, "cancelled"
        if a.hedge_detect + hedge.duration < a.duration:
            return hedge, a.hedge_detect + hedge.duration, "won"
        return a, a.duration, "lost"

    def _account_hedge(
        self,
        a: _Assignment,
        outcome: str,
        effective: float,
        record: BatchRecord,
        attempted: dict[str, set[str]],
        lanes: list[float],
    ) -> None:
        """Fold one resolved hedge into counters, metrics, and the lane model."""
        hedge = a.hedge
        metrics = self.platform.metrics
        record.dispatched += 1
        record.hedged += 1
        if outcome == "won":
            record.hedges_won += 1
            record.hedge_refund += a.task.reward  # the cancelled primary
        elif outcome == "lost":
            record.hedges_lost += 1
            record.hedge_refund += a.task.reward  # the cancelled hedge copy
        else:
            record.hedges_cancelled += 1  # faulted copy: nothing to refund
        if hedge.straggled:
            metrics.inc("faults.stragglers")
        attempted[a.task.task_id].add(hedge.worker.worker_id)
        metrics.inc("batch.hedges", labels={"outcome": outcome})
        if self.platform.tracer.enabled:
            self.platform.tracer.annotate(
                "batch.hedge",
                task_id=a.task.task_id,
                outcome=outcome,
                detect=a.hedge_detect,
                primary=a.duration,
                hedge=hedge.duration,
            )
        # The losing copy occupied a lane from detection until it finished
        # or was cancelled at the winner's completion, whichever came first.
        lane = min(range(len(lanes)), key=lanes.__getitem__)
        lanes[lane] += min(hedge.duration, max(0.0, effective - a.hedge_detect))

    def _assignment(self, task: Task, worker: "Worker", order: int, attempt: int = 0) -> _Assignment:
        stream = self._streams
        self._streams += 1
        return _Assignment(task=task, worker=worker, order=order, stream=stream, attempt=attempt)

    def _retry(self, failed: _Assignment, attempted: set[str], order: int) -> _Assignment:
        attempt = failed.attempt + 1
        if attempt > self.config.retry_limit:
            raise RetryExhaustedError(
                failed.task.task_id,
                attempts=attempt,
                reason=failed.fault or "fault",
                outcomes=failed.outcomes,
            )
        # Prefer a worker who has not touched this task; fall back to any
        # worker who has not *answered* it when the pool is too small.
        try:
            worker = self.platform.pool.sample(1, exclude=attempted)[0]
        except NoWorkersAvailableError:
            answered = {
                a.worker_id for a in self.platform.answers_for(failed.task.task_id)
            }
            worker = self.platform.pool.sample(1, exclude=answered)[0]
        nxt = self._assignment(failed.task, worker, order, attempt=attempt)
        nxt.outcomes = failed.outcomes  # the chain shares one history list
        return nxt

    # ------------------------------------------------------------------ #
    # Attempt execution
    # ------------------------------------------------------------------ #

    def _execute_wave(self, wave: list[_Assignment]) -> None:
        """Fill in each assignment's (fault, duration, value) in place.

        Runs on the caller's thread in wave order; lanes exist only on the
        simulated clock. One lane draws from the platform RNG in dispatch
        order. More lanes seed the wave's stream ids in one pass, then move
        the scheduler's one reusable generator to each assignment's stream
        before its attempt; its draws equal those of a generator freshly
        seeded with ``[seed, stream]`` (``[stream]`` when the seed is None).
        """
        if not self.parallel:
            rng = self.platform.rng
            for a in wave:
                self._attempt(a, rng)
            return
        streams = self._stream_rng.walk(self.config.seed, [a.stream for a in wave])
        for a, rng in zip(wave, streams):
            self._attempt(a, rng)

    def _attempt(self, a: _Assignment, rng: np.random.Generator) -> None:
        cfg = self.config
        if cfg.abandon_rate > 0.0 and rng.random() < cfg.abandon_rate:
            a.fault = "abandoned"
            # The slot is lost until the platform reclaims it.
            a.duration = (
                cfg.assignment_timeout
                if cfg.assignment_timeout is not None
                else a.worker.latency.service_time(rng)
            )
            return
        duration = a.worker.latency.service_time(rng)
        faults = self.platform.faults
        if faults is not None:
            # Keyed by the assignment's global stream id, so identical at
            # any lane count; only the flag is set here, and the metric is
            # counted when the wave is committed.
            duration, a.straggled = faults.perturb_duration(a.stream, duration)
        if cfg.assignment_timeout is not None and duration > cfg.assignment_timeout:
            a.fault = "timeout"
            a.duration = cfg.assignment_timeout
            return
        a.fault = None
        a.duration = duration
        a.value = a.worker.model.answer(a.task, rng)

    # ------------------------------------------------------------------ #
    # Commit (in deterministic wave order)
    # ------------------------------------------------------------------ #

    def _commit(self, a: _Assignment, result: BatchRunResult, finished: float) -> None:
        platform = self.platform
        task, worker = a.task, a.worker
        platform._charge(task.reward)
        answer = Answer(
            task_id=task.task_id,
            worker_id=worker.worker_id,
            value=a.value,
            submitted_at=a.duration,  # the Worker.submit stamp at now=0
            duration=a.duration,
            reward_paid=task.reward,
        )
        deliveries = [answer]
        if platform.faults is not None:
            answer, duplicates, fault_names = platform.faults.deliver(
                answer, task, a.stream
            )
            deliveries = [answer, *duplicates]
            for name in fault_names:
                platform.metrics.inc(f"faults.{name}")
                if platform.tracer.enabled:
                    platform.tracer.annotate(
                        "fault.delivery",
                        task_id=task.task_id,
                        worker_id=worker.worker_id,
                        kind=name,
                    )
        worker.history.append(answer)
        worker.earned += task.reward
        for delivered in deliveries:
            platform.answers.append(delivered)
            platform._answers_by_task[task.task_id].append(delivered)
            platform.stats.answers_collected += 1
            platform.stats.answers_by_worker[worker.worker_id] += 1
            result.answers.setdefault(task.task_id, []).append(delivered)
        landed = (self._clock - self._run_base) + finished
        previous = result.completion_times.get(task.task_id, 0.0)
        result.completion_times[task.task_id] = max(previous, landed)
