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
  retry-with-exponential-backoff on a fresh worker (retry *r* waits
  ``RETRY_BACKOFF * 2**(r-1)`` simulated seconds), and exhausting the
  retry budget raises :class:`~repro.errors.RetryExhaustedError`.

Every platform has a scheduler, and :meth:`SimulatedPlatform.collect` is
a thin call to :meth:`BatchScheduler.run`, so every batch collection
passes through this module.

Determinism: planning (worker sampling) happens in task order, so the
pool's RNG stream is consumed identically at any lane count. A wave's
tasks are sampled with one bounded-integer draw from the pool's
generator (:meth:`~repro.workers.pool.WorkerPool.draw`), which makes
exactly the draws one ``Generator.choice`` per task would, in task
order, and leaves the generator in the same state. With
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
    from repro.platform.cache import CacheResolution
    from repro.platform.platform import SimulatedPlatform
    from repro.recovery.breakers import CircuitBreaker
    from repro.workers.worker import Worker


#: Base simulated backoff, in seconds, before retry r: ``RETRY_BACKOFF * 2**(r-1)``.
RETRY_BACKOFF = 1.0
#: Completion-time quantile beyond which a running attempt is a straggler.
HEDGE_PERCENTILE = 0.9


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
        seed: Entropy for the per-assignment RNG streams used when
            ``max_parallel > 1``: None or a non-negative int. A stream's
            entropy is ``[seed, stream]``, or ``[stream]`` when None.
        failure_policy: What happens when a task cannot be completed
            (retries exhausted, budget gone, breaker open): ``"fail"``
            raises, ``"skip"`` drops the task from the answers,
            ``"degrade"`` keeps partial answers and records failures (see
            :class:`~repro.recovery.degrade.FailurePolicy`).
        hedge_enabled: Speculatively re-issue in-flight stragglers (past
            the :data:`HEDGE_PERCENTILE` completion time) once a
            per-task-type completion model is warm (see module docstring).
        hedge_min_samples: Observations per task type required before the
            model is trusted; colder types never hedge.
    """

    batch_size: int = 32
    max_parallel: int = 1
    retry_limit: int = 2
    assignment_timeout: float | None = None
    abandon_rate: float = 0.0
    seed: int | None = None
    failure_policy: str = "fail"
    hedge_enabled: bool = False
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


class _Assignment:
    """One (task, worker) attempt tracked through execution."""

    __slots__ = (
        "task", "worker", "order", "stream", "attempt", "fault", "duration",
        "value", "straggled", "outcomes", "hedge", "hedge_detect",
    )

    def __init__(
        self, task: Task, worker: "Worker", order: int, stream: int, attempt: int = 0
    ) -> None:
        self.task = task
        self.worker = worker
        self.order = order        # stable dispatch order within the wave
        self.stream = stream      # global per-assignment RNG stream id
        self.attempt = attempt    # 0 = first try
        # filled by execution:
        self.fault: str | None = None  # None | "timeout" | "abandoned"
        self.duration = 0.0       # simulated seconds the lane was occupied
        self.value: object = None
        self.straggled = False    # duration inflated by an injected straggler spike
        # outcome history of this retry chain, shared across its assignments
        self.outcomes: list[str] = []
        # speculative hedge copy racing this attempt, if any
        self.hedge: _Assignment | None = None
        self.hedge_detect = 0.0   # simulated offset at which the hedge launched


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

    def committed(self, latencies: list[float]) -> None:
        """Book a wave's successful attempts: one ``ok`` outcome and one
        latency sample each, in commit order."""
        if self._latency is None:
            self._latency = self._metrics.histogram("batch.assignment_latency")
        self._latency.observe_many(latencies)
        self.outcome("ok", len(latencies))

    def outcome(self, outcome: str, count: int = 1) -> None:
        counter = self._outcomes.get(outcome)
        if counter is None:
            counter = self._outcomes[outcome] = self._metrics.counter(
                "batch.assignment_outcomes", {"outcome": outcome}
            )
        counter.inc(count)


class HedgeState:
    """Online per-task-type completion models driving hedge decisions.

    Effective task durations are recorded in commit order (deterministic at
    any parallelism); thresholds come from a *robust* lognormal fit
    (:func:`repro.latency.statistical.fit_completion_model` with
    ``robust=True``) so an already-contaminated observation window still
    recognizes stragglers instead of chasing them. The observation windows
    are the whole state: :meth:`export_state` carries them through a
    checkpoint, so a resumed run refits the same thresholds.
    """

    def __init__(
        self,
        percentile: float = HEDGE_PERCENTILE,
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
        self._version = 0
        self._cache: dict[str, tuple[int, float]] = {}

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
        value = self._quantile(model, percentile=self.percentile)
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
        self.breakers: list["CircuitBreaker"] = []
        self.batches_run = 0  # lifetime batch count; survives checkpoint/resume
        self._clock = 0.0     # simulated time already consumed by past batches
        self._run_base = 0.0  # clock value when the current run() started
        self._streams = 0     # per-assignment RNG stream counter
        self._stream_rng = StreamGenerator()  # positioned per assignment above one lane
        self._budget_exhausted = False
        self.hedge_state: HedgeState | None = (
            HedgeState(min_samples=self.config.hedge_min_samples)
            if self.config.hedge_enabled
            else None
        )

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

    def run(
        self,
        tasks: Sequence[Task],
        redundancy: int = 3,
        complete: bool = True,
        *,
        on_batch: Callable[[list[Task], BatchRunResult], None] | None = None,
        more: Callable[[], None] | None = None,
    ) -> BatchRunResult:
        """Gather *redundancy* answers per task, batch by batch.

        Returns a :class:`BatchRunResult` whose ``answers`` mapping
        ({task_id: [answers]}) is what :meth:`SimulatedPlatform.collect`
        returns. Tasks are completed
        afterwards unless *complete* is False (round-structured callers keep
        them open for further answers).

        The run reads *tasks* by index as it takes them, never from a
        snapshot. Each slice it takes is resolved against the answer cache
        into the run's one resolution: misses queue for dispatch, hits are
        served at once. *more* lets a caller list its tasks as the run
        needs them: once every listed task is taken and fewer than
        ``batch_size`` misses are pending, the run calls ``more()``, which
        appends to *tasks*; a call that appends nothing ends the taking.
        A caller that appends one task per call gets the waves its
        complete list would give. Without *more* the whole list is one
        slice. *on_batch* is invoked with a list of tasks and the running
        result, whose ``answers`` already hold theirs: with each slice's
        cache hits as they are found, and after each successfully
        dispatched batch with the batch's tasks, letting streaming callers
        consume answers wave-by-wave. Neither hook fires when left as None.

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
        # run below. resolution stays None when no cache applies (none
        # attached, or a complete=False round-structured caller).
        resolution: CacheResolution | None = None
        halted: str | None = None
        pending: deque[Task] = deque()
        taken = 0
        try:
            while True:
                if taken < len(tasks):
                    # Take the newly listed tasks: misses queue, hits are served now.
                    new = tasks[taken:] if taken else tasks
                    taken = len(tasks)
                    misses = len(resolution.misses) if resolution else 0
                    hits = len(resolution.hit_tasks) if resolution else 0
                    resolution = self.platform.cache_resolve(
                        new, redundancy, complete=complete, into=resolution
                    )
                    if resolution is None:
                        pending.extend(new)
                    else:
                        pending.extend(resolution.misses[misses:])
                        served = resolution.hit_tasks[hits:]
                        if on_batch is not None and served:
                            for task in served:
                                result.answers[task.task_id] = resolution.hits[task.task_id]
                            on_batch(served, result)
                if more is not None and len(pending) < size:
                    more()
                    if taken < len(tasks):
                        continue
                    more = None  # a pull that lists nothing ends the taking
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
                if injector is not None:
                    for event in injector.on_batch_start(
                        self.batches_run, self.platform, redundancy
                    ):
                        if tracer.enabled:
                            tracer.annotate("fault.injected", batch=self.batches_run, event=event)
                record = BatchRecord(index=self.batches_run, tasks=len(batch))
                with tracer.span(
                    "batch",
                    sim_start=self._clock,
                    index=record.index,
                    tasks=len(batch),
                ) as span:
                    self._run_batch(batch, redundancy, record, result, complete, policy)
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

        wave = self._plan_wave(batch, redundancy, policy, result)
        attempted: dict[str, set[str]] = {t.task_id: set() for t in batch}
        lanes = [outage] * self.config.max_parallel
        metrics = platform.metrics
        instruments = _BatchInstruments(metrics) if metrics.enabled else None
        retry_counts: dict[str, int] = {}
        order = len(wave)
        while wave:
            self._execute_wave(wave)
            # Hedge planning happens in wave order (pool RNG determinism),
            # then the hedge copies run as one mini-wave after their
            # primaries.
            if self.hedge_state is not None:
                hedges = self._plan_hedges(wave, attempted)
                if hedges:
                    self._execute_wave(hedges)
            wave = self._commit_wave(
                wave, order, record, result, policy, attempted, lanes, retry_counts,
                instruments,
            )
            order += len(wave)
        if instruments is not None:
            metrics.histogram("batch.retries_per_task").observe_many(
                [retry_counts.get(task.task_id, 0) for task in batch]
            )
        if complete:
            for task in batch:
                if task.is_open:
                    task.complete()
        record.makespan = max(lanes)
        record.wall_clock = time.perf_counter() - started

    def _plan_wave(
        self,
        batch: list[Task],
        redundancy: int,
        policy: FailurePolicy,
        result: BatchRunResult,
    ) -> list[_Assignment]:
        """Sample every task's workers in task order, with one pool draw.

        Workers who have already answered a task (round-structured callers)
        are not eligible for it, which is a no-op for fresh tasks. The
        pool's generator is consumed exactly as by one :meth:`WorkerPool.
        sample` call per task, so the stream is the same at any lane count.
        A task with fewer than *redundancy* eligible workers raises under
        the ``fail`` policy, after the tasks before it have drawn; otherwise
        it takes every eligible worker, and a task with none gets a
        ``no_workers`` failure record without drawing.
        """
        pool = self.platform.pool
        answers_by_task = self.platform._answers_by_task
        active = pool.active_workers
        planned: list[Task] = []
        requests: list[tuple[list[Worker], int]] = []
        short: NoWorkersAvailableError | None = None
        for task in batch:
            eligible = active
            answers = answers_by_task.get(task.task_id)
            if answers:
                answered = {a.worker_id for a in answers}
                eligible = [w for w in active if w.worker_id not in answered]
            k = redundancy
            if len(eligible) < k:
                if policy is FailurePolicy.FAIL:
                    short = NoWorkersAvailableError(
                        f"requested {k} workers but only {len(eligible)} eligible"
                    )
                    break
                if not eligible:
                    self._record_failure(
                        result, FailureInfo(task.task_id, reason="no_workers")
                    )
                    continue
                k = len(eligible)
            planned.append(task)
            requests.append((eligible, k))
        wave: list[_Assignment] = []
        assignment = self._assignment
        for task, workers in zip(planned, pool.draw(requests)):
            for worker in workers:
                wave.append(assignment(task, worker, len(wave)))
        if short is not None:
            raise short
        return wave

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
        self._streams = stream + 1
        return _Assignment(task, worker, order, stream, attempt)

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

    def _commit_wave(
        self,
        wave: list[_Assignment],
        order: int,
        record: BatchRecord,
        result: BatchRunResult,
        policy: FailurePolicy,
        attempted: dict[str, set[str]],
        lanes: list[float],
        retry_counts: dict[str, int],
        instruments: _BatchInstruments | None,
    ) -> list[_Assignment]:
        """Commit an executed wave in wave order and return its retries.

        Each attempt occupies the earliest-free lane. A successful one is
        charged, answered and delivered (a fault plan may corrupt, delay or
        duplicate the delivery); a faulted one is re-posted on a fresh
        worker, numbered from *order*. ``answers_collected`` and the
        ``ok`` outcome are booked once for the wave, also when a failure
        raises part-way through it.
        """
        platform = self.platform
        charge = platform._charge
        record_answer = platform.record_answer
        record_failure = self._record_failure
        metrics = platform.metrics
        tracer = platform.tracer
        faults = platform.faults
        hedge_state = self.hedge_state
        answers = result.answers
        completion_times = result.completion_times
        run_offset = self._clock - self._run_base
        latencies: list[float] = []
        delivered = 0
        retries: list[_Assignment] = []
        record.dispatched += len(wave)
        try:
            for a in wave:
                task = a.task
                task_id = task.task_id
                if a.attempt:
                    record.retried += 1
                    backoff = RETRY_BACKOFF * 2 ** (a.attempt - 1)
                else:
                    backoff = 0.0
                if a.straggled:
                    metrics.inc("faults.stragglers")
                attempted[task_id].add(a.worker.worker_id)
                winner, effective, outcome = a, a.duration, None
                if a.hedge is not None:
                    winner, effective, outcome = self._resolve_hedge(a)
                lane = lanes.index(min(lanes))
                finished = lanes[lane] + backoff + effective
                lanes[lane] = finished
                if outcome is not None:
                    self._account_hedge(a, outcome, effective, record, attempted, lanes)
                if a.fault is None:
                    if self._budget_exhausted:
                        record_failure(result, FailureInfo(task_id, reason="budget_exhausted"))
                        continue
                    reward = task.reward
                    try:
                        charge(reward)
                    except BudgetExceededError:
                        if policy is FailurePolicy.FAIL:
                            raise
                        self._budget_exhausted = True
                        record_failure(result, FailureInfo(task_id, reason="budget_exhausted"))
                        continue
                    duration = winner.duration
                    # submitted_at is the Worker.submit stamp at now=0: the duration.
                    answer = Answer(
                        task_id, winner.worker.worker_id, winner.value, duration, duration, reward
                    )
                    deliveries = (answer,) if faults is None else self._deliver(answer, winner)
                    landed = answers.get(task_id)
                    if landed is None:
                        landed = answers[task_id] = []
                    for delivery in deliveries:
                        record_answer(delivery, counted=False)
                        landed.append(delivery)
                    delivered += len(deliveries)
                    done = run_offset + finished
                    previous = completion_times.get(task_id)
                    if previous is None or done > previous:
                        completion_times[task_id] = done
                    if hedge_state is not None:
                        hedge_state.observe(task.task_type.value, effective)
                    latencies.append(duration)
                    continue
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
                        "batch.retry", task_id=task_id, attempt=a.attempt + 1, reason=a.fault
                    )
                if self._budget_exhausted:
                    record_failure(result, FailureInfo(task_id, reason="budget_exhausted"))
                    continue
                try:
                    retries.append(self._retry(a, attempted[task_id], order + len(retries)))
                except RetryExhaustedError as exc:
                    if policy is FailurePolicy.FAIL:
                        raise
                    record_failure(
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
                    record_failure(
                        result,
                        FailureInfo(
                            task_id,
                            reason="no_workers",
                            attempts=a.attempt + 1,
                            outcomes=list(a.outcomes),
                        ),
                    )
        finally:
            if delivered:
                platform.stats.answers_collected += delivered
            if instruments is not None and latencies:
                instruments.committed(latencies)
        return retries

    def _deliver(self, answer: Answer, a: _Assignment) -> list[Answer]:
        """Pass *answer* through the fault plan's delivery faults; returns
        what arrives (the answer, possibly corrupted or late, then any
        duplicates)."""
        platform = self.platform
        answer, duplicates, fault_names = platform.faults.deliver(answer, a.task, a.stream)
        for name in fault_names:
            platform.metrics.inc(f"faults.{name}")
            if platform.tracer.enabled:
                platform.tracer.annotate(
                    "fault.delivery",
                    task_id=a.task.task_id,
                    worker_id=a.worker.worker_id,
                    kind=name,
                )
        return [answer, *duplicates]
