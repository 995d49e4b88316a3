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

    Every field is a setting of the ``python -m repro`` command line (its
    global flags, and ``serve``'s ``platform_budget``), so a run's command
    line states its configuration completely. Lower-level behaviour is
    configured on the object that implements it: fault injection and retry
    limits through ``engine.platform.attach_scheduler(replace(
    engine.scheduler.config, ...))``, breakers by appending to
    ``engine.scheduler.breakers``, a bounded cache through
    ``engine.platform.attach_cache``, and a live-ops server by building a
    :class:`~repro.obs.server.MetricsServer` on ``engine.metrics``.

    Attributes:
        redundancy: Default votes per crowd question.
        inference: Truth-inference method name (see
            :data:`repro.quality.truth.CATEGORICAL_METHODS`).
        budget: Total spend ceiling for the engine's platform; > 0 (inf,
            the default, is no ceiling).
        seed: Master seed, a non-negative int — the pool gets ``seed``, the
            platform ``seed+1``, and the batch runtime's per-assignment
            streams ``seed+2``.
        pool_size: Workers in the default pool.
        pool_accuracy_range: (low, high) accuracies for the default
            heterogeneous pool.
        batch_size: Tasks grouped per dispatch wave of the batch runtime.
        max_parallel: Simulated-clock lanes the batch runtime overlaps
            assignments on (draws run on the caller's thread). Every
            operator runs through that runtime with the same strategy at
            any lane count. 1 (the default) draws each assignment from
            the platform RNG in dispatch order; more lanes give each
            assignment its own random stream.
        trace_path: When set, the engine writes a span trace of every run
            to this file as JSONL, one ``statement`` span per CrowdSQL
            statement (read it back, per statement and per operator, with
            ``python -m repro trace-report FILE``).
        metrics_enabled: Record counters/histograms (assignment latency,
            retries per task, EM deltas, per-operator cost) in the
            engine's :class:`~repro.obs.metrics.MetricsRegistry`.
        failure_policy: What the batch runtime does when a task cannot be
            completed — ``"fail"`` (raise, the historical default),
            ``"skip"`` (drop the task from results), or ``"degrade"``
            (keep partial answers plus a failure record).
        fault_plan: Path to a JSON :class:`~repro.faults.plan.FaultPlan`
            the engine's platform injects, or None (no faults).
        hedge_enabled: Speculatively re-issue in-flight straggler
            assignments once the batch runtime's per-task-type completion
            model is warm (first answer wins; losing copy cancelled and
            refunded). Off by default — hedging off is bit-identical to
            the pre-hedging runtime.
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
        pipeline: Stream a LIMIT over a CROWDFILTER through
            :class:`~repro.lang.streaming.StreamingExecutor`, which
            cancels the HITs the LIMIT no longer needs. Every other
            statement runs through the barrier executor either way. Off
            by default.
    """

    redundancy: int = 3
    inference: str = "mv"
    budget: float = math.inf
    seed: int = 0
    pool_size: int = 25
    pool_accuracy_range: tuple[float, float] = (0.6, 0.95)
    batch_size: int = 32
    max_parallel: int = 1
    trace_path: str | None = None
    metrics_enabled: bool = False
    failure_policy: str = "fail"
    fault_plan: str | None = None
    hedge_enabled: bool = False
    cache_enabled: bool = False
    cache_path: str | None = None
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
        # `not >`: a NaN budget would disable every budget check.
        if not self.budget > 0:
            raise ConfigurationError(f"budget must be > 0, got {self.budget}")
        if self.pool_size < 1:
            raise ConfigurationError("pool_size must be >= 1")
        low, high = self.pool_accuracy_range
        if not 0.0 <= low <= high <= 1.0:
            raise ConfigurationError("pool_accuracy_range must satisfy 0 <= low <= high <= 1")
        if self.trace_path is not None and not self.trace_path:
            raise ConfigurationError("trace_path must be a non-empty path or None")
        if self.fault_plan is not None and not self.fault_plan:
            raise ConfigurationError("fault_plan must be a non-empty path or None")
        if self.cache_path is not None and not self.cache_path:
            raise ConfigurationError("cache_path must be a non-empty path or None")
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
            seed=self.seed + 2,
            failure_policy=self.failure_policy,
            hedge_enabled=self.hedge_enabled,
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

        return AnswerCache()

    def make_fault_plan(self):
        """Load the configured fault plan, or None when faults are off."""
        if self.fault_plan is None:
            return None
        from repro.faults.plan import FaultPlan

        return FaultPlan.from_file(self.fault_plan)
