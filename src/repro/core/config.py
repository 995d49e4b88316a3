"""Engine configuration."""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.platform.batch import BatchConfig, check_seed
from repro.quality.truth import CATEGORICAL_METHODS


@dataclass
class EngineConfig:
    """Knobs for a :class:`~repro.core.engine.CrowdEngine`.

    Attributes:
        redundancy: Default votes per crowd question.
        inference: Truth-inference method name (see
            :data:`repro.quality.truth.CATEGORICAL_METHODS`).
        budget: Total spend ceiling for the engine's platform.
        task_price: Default per-assignment reward.
        seed: Master seed, a non-negative int — the pool gets ``seed``, the
            platform ``seed+1``, and the batch runtime's per-assignment
            streams ``seed+2``.
        pool_size: Workers in the default pool.
        pool_accuracy_range: (low, high) accuracies for the default
            heterogeneous pool.
        batch_size: Tasks grouped per dispatch wave of the batch runtime.
        max_parallel: Simulated-clock lanes the batch runtime overlaps
            assignments on (draws run on the caller's thread). Every
            batch collection runs through that runtime. 1 (the default) draws
            each assignment from the platform RNG in dispatch order; more
            lanes give each assignment its own random stream.
        retry_limit: Retries per assignment after the first attempt.
        assignment_timeout: Simulated seconds before an in-flight
            assignment is reclaimed and retried; None disables timeouts.
        abandon_rate: Probability a simulated worker abandons an
            assignment (fault injection; 0 = off, the default).
        retry_backoff: Base simulated backoff before retry r
            (``retry_backoff * 2**(r-1)``).
        trace_path: When set, the engine writes a span trace of every run
            to this file as JSONL (read it back with
            ``python -m repro trace-report FILE``).
        metrics_enabled: Record counters/histograms (assignment latency,
            retries per task, EM deltas, per-operator cost) in the
            engine's :class:`~repro.obs.metrics.MetricsRegistry`.
        event_log_limit: Cap on the in-memory event log each simulated
            timeline retains; None (default) keeps every event.
        failure_policy: What the batch runtime does when a task cannot be
            completed — ``"fail"`` (raise, the historical default),
            ``"skip"`` (drop the task from results), or ``"degrade"``
            (keep partial answers plus a failure record).
        fault_plan: Path to a JSON :class:`~repro.faults.plan.FaultPlan`
            the engine's platform injects, or None (no faults).
        deadline: Simulated-clock deadline; a breaker stops dispatching
            new batches once the scheduler clock reaches it. None = off.
        adaptive_deadline: Escalate through the recovery ladder as the
            clock eats into ``deadline`` (hedge harder, then shrink
            redundancy) instead of only tripping at the wall — installs an
            :class:`~repro.recovery.breakers.AdaptiveDeadlineBreaker`.
            Requires ``deadline``.
        hedge_enabled: Speculatively re-issue in-flight straggler
            assignments once the batch runtime's per-task-type completion
            model is warm (first answer wins; losing copy cancelled and
            refunded). Off by default — hedging off is bit-identical to
            the pre-hedging runtime.
        hedge_percentile: Completion-time quantile that flags a running
            assignment as a straggler.
        hedge_min_samples: Observations per task type before the fitted
            model is trusted for hedging.
        budget_reserve: Stop dispatching new batches once remaining
            budget drops to this floor (a budget circuit breaker). 0 = off.
        cache_enabled: Attach a content-addressed
            :class:`~repro.platform.cache.AnswerCache` to the platform, so
            identical questions are published once and answers are reused
            across operators and statements. Off by default (the
            historical behaviour); a cold cache changes nothing on
            workloads without duplicate questions.
        cache_path: JSONL file the cache is loaded from at startup (when
            it exists) and spilled to on :meth:`~repro.core.engine.
            CrowdEngine.close` — Reprowd-style reuse across runs. Setting
            a path implies ``cache_enabled``.
        cache_max_entries: LRU capacity of the cache (least-recently-used
            signature evicted past it); None = unbounded.
        metrics_port: When set, the engine starts a live-ops HTTP server
            on ``127.0.0.1:<port>`` exposing ``/metrics`` (Prometheus
            text exposition), ``/healthz``, and ``/run`` (JSON run
            status). Port 0 binds an ephemeral port (read it back from
            ``engine.metrics_server.port``). Implies ``metrics_enabled``.
        profile_path: When set, the engine attaches a
            :class:`~repro.obs.profiler.QueryProfiler` and writes a
            per-statement ``profile.json`` here on
            :meth:`~repro.core.engine.CrowdEngine.close` (render it with
            ``python -m repro profile-report FILE``). Implies
            ``metrics_enabled``.
        pipeline: Execute SELECTs through the streaming pipelined
            executor (:class:`~repro.lang.streaming.StreamingExecutor`):
            answers flow downstream as each wave lands, and TOP-K/LIMIT
            cancels still-pending upstream HITs. Off by default. Both
            executors buy each crowd operator's questions in one scheduler
            run, so without early termination they buy the same answers.
    """

    redundancy: int = 3
    inference: str = "mv"
    budget: float = math.inf
    task_price: float = 0.01
    seed: int = 0
    pool_size: int = 25
    pool_accuracy_range: tuple[float, float] = (0.6, 0.95)
    batch_size: int = 32
    max_parallel: int = 1
    retry_limit: int = 2
    assignment_timeout: float | None = None
    abandon_rate: float = 0.0
    retry_backoff: float = 1.0
    trace_path: str | None = None
    metrics_enabled: bool = False
    event_log_limit: int | None = None
    failure_policy: str = "fail"
    fault_plan: str | None = None
    deadline: float | None = None
    adaptive_deadline: bool = False
    hedge_enabled: bool = False
    hedge_percentile: float = 0.9
    hedge_min_samples: int = 20
    budget_reserve: float = 0.0
    cache_enabled: bool = False
    cache_path: str | None = None
    cache_max_entries: int | None = None
    metrics_port: int | None = None
    profile_path: str | None = None
    pipeline: bool = False

    def __post_init__(self) -> None:
        # The pool, platform and batch seeds all derive from this one.
        check_seed(self.seed, optional=False)
        if self.redundancy < 1:
            raise ConfigurationError("redundancy must be >= 1")
        if self.inference not in CATEGORICAL_METHODS:
            raise ConfigurationError(
                f"unknown inference {self.inference!r}; "
                f"available: {sorted(CATEGORICAL_METHODS)}"
            )
        if self.task_price < 0:
            raise ConfigurationError("task_price must be non-negative")
        if self.pool_size < 1:
            raise ConfigurationError("pool_size must be >= 1")
        low, high = self.pool_accuracy_range
        if not 0.0 <= low <= high <= 1.0:
            raise ConfigurationError("pool_accuracy_range must satisfy 0 <= low <= high <= 1")
        if self.trace_path is not None and not self.trace_path:
            raise ConfigurationError("trace_path must be a non-empty path or None")
        if self.event_log_limit is not None and self.event_log_limit < 0:
            raise ConfigurationError("event_log_limit must be >= 0 or None")
        if self.fault_plan is not None and not self.fault_plan:
            raise ConfigurationError("fault_plan must be a non-empty path or None")
        if self.deadline is not None and self.deadline <= 0:
            raise ConfigurationError(
                f"deadline must be > 0 or None, got {self.deadline}"
            )
        if self.adaptive_deadline and self.deadline is None:
            raise ConfigurationError(
                "adaptive_deadline requires a deadline to escalate against"
            )
        if self.budget_reserve < 0:
            raise ConfigurationError(
                f"budget_reserve must be >= 0, got {self.budget_reserve}"
            )
        if self.cache_path is not None and not self.cache_path:
            raise ConfigurationError("cache_path must be a non-empty path or None")
        if self.cache_max_entries is not None and self.cache_max_entries < 1:
            raise ConfigurationError(
                f"cache_max_entries must be >= 1 or None, got {self.cache_max_entries}"
            )
        if self.metrics_port is not None and not 0 <= self.metrics_port <= 65535:
            raise ConfigurationError(
                f"metrics_port must be in [0, 65535] or None, got {self.metrics_port}"
            )
        if self.profile_path is not None and not self.profile_path:
            raise ConfigurationError("profile_path must be a non-empty path or None")
        # Both live-ops surfaces read the registry, so they force it on.
        if self.metrics_port is not None or self.profile_path is not None:
            self.metrics_enabled = True
        # Batch-runtime knobs share BatchConfig's validation (including
        # failure_policy parsing).
        self.make_batch_config()

    def make_inference(self):
        """Instantiate the configured truth-inference method."""
        return CATEGORICAL_METHODS[self.inference]()

    def make_batch_config(self) -> BatchConfig:
        """The batch-runtime configuration these knobs describe."""
        return BatchConfig(
            batch_size=self.batch_size,
            max_parallel=self.max_parallel,
            retry_limit=self.retry_limit,
            assignment_timeout=self.assignment_timeout,
            abandon_rate=self.abandon_rate,
            retry_backoff=self.retry_backoff,
            seed=self.seed + 2,
            failure_policy=self.failure_policy,
            hedge_enabled=self.hedge_enabled,
            hedge_percentile=self.hedge_percentile,
            hedge_min_samples=self.hedge_min_samples,
        )

    @property
    def cache_active(self) -> bool:
        """True when the engine should attach an answer cache."""
        return self.cache_enabled or self.cache_path is not None

    def make_cache(self):
        """Instantiate the configured answer cache, or None when off."""
        if not self.cache_active:
            return None
        from repro.platform.cache import AnswerCache

        return AnswerCache(max_entries=self.cache_max_entries)

    def make_fault_plan(self):
        """Load the configured fault plan, or None when faults are off."""
        if self.fault_plan is None:
            return None
        from repro.faults.plan import FaultPlan

        return FaultPlan.from_file(self.fault_plan)
