"""The CrowdEngine: one object wiring storage, platform, quality, and SQL.

This is the public entry point a downstream user adopts::

    from repro import CrowdEngine, EngineConfig

    engine = CrowdEngine(EngineConfig(redundancy=5, inference="ds", seed=42))
    engine.sql("CREATE TABLE photos (pid INTEGER, caption STRING CROWD, "
               "PRIMARY KEY (pid))")
    ...

Every crowd-powered operator is also available as a method, so programs can
mix declarative (SQL) and imperative (operator) styles against one shared
budget and worker pool — the architecture CrowdDB/Qurk/Deco share.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Callable, Sequence

from repro.core.config import EngineConfig
from repro.cost.pruning import SimilarityPruner
from repro.data.database import Database
from repro.data.table import Table
from repro.errors import ConfigurationError
from repro.lang.executor import CrowdOracle, QueryResult
from repro.lang.interpreter import CrowdSQLSession, StatementResult
from repro.obs import NULL_TRACER, JsonlSink, MetricsRegistry, Tracer
from repro.operators.categorize import CategorizeResult, CrowdCategorize
from repro.operators.collect import CollectResult, CrowdCollect
from repro.operators.count import CountResult, CrowdCount
from repro.operators.fill import CrowdFill, FillResult
from repro.operators.filter import AdaptiveFilter, FilterResult, FixedKFilter
from repro.operators.join import CrowdJoin, JoinResult
from repro.operators.sort import (
    CrowdComparator,
    SortResult,
    all_pairs_sort,
    hybrid_sort,
    merge_sort_crowd,
    rating_sort,
)
from repro.operators.topk import TopKResult, topk_tournament, tournament_max
from repro.platform.platform import PlatformStats, SimulatedPlatform
from repro.quality.truth import TruthInference
from repro.workers.pool import WorkerPool

_SORT_STRATEGIES = ("all_pairs", "merge", "rating", "hybrid")


class CrowdEngine:
    """Facade over the whole crowddm stack.

    Args:
        config: Engine configuration (defaults are sensible for demos).
        pool: Worker pool; a heterogeneous pool per the config when omitted.
        database: Catalog to use; a fresh one when omitted.
        oracle: Simulation ground truth for SQL crowd operators.

    The engine owns its tracer and metrics registry (enabled per
    ``config.metrics_enabled``): its platform records into them, and so
    does every truth-inference method it builds (:meth:`make_inference`).
    Two engines in one process share no instrument and no ledger.

    A fault plan or answer-cache file that cannot be read, or a cache
    path that cannot be written, raises here, before any crowd work.
    """

    def __init__(
        self,
        config: EngineConfig | None = None,
        pool: WorkerPool | None = None,
        database: Database | None = None,
        oracle: CrowdOracle | None = None,
    ):
        self.config = config or EngineConfig()
        # Read every input that can be wrong before a trace file opens.
        plan = self.config.make_fault_plan()
        cache = self.config.make_cache()
        if cache is not None and self.config.cache_path is not None:
            if Path(self.config.cache_path).exists():
                cache.load(self.config.cache_path)
            else:
                # Touch the spill file: an unwritable path fails now, not
                # in close() after the answers are paid for.
                cache.save(self.config.cache_path)
        low, high = self.config.pool_accuracy_range
        self.pool = pool or WorkerPool.heterogeneous(
            self.config.pool_size, low, high, seed=self.config.seed
        )
        if self.config.trace_path is not None:
            self.tracer = Tracer(JsonlSink(self.config.trace_path))
        else:
            self.tracer = NULL_TRACER
        self.metrics = MetricsRegistry(enabled=self.config.metrics_enabled)
        self.platform = SimulatedPlatform(
            self.pool,
            budget=self.config.budget,
            seed=self.config.seed + 1,
            batch=self.config.make_batch_config(),
            tracer=self.tracer,
            metrics=self.metrics,
        )
        if cache is not None:
            self.platform.attach_cache(cache)
        if plan is not None:
            self.platform.attach_faults(plan)
        # `is None` check: an empty Database is falsy (it defines __len__).
        self.database = Database() if database is None else database
        self.oracle = oracle or CrowdOracle()
        self._session = CrowdSQLSession(
            database=self.database,
            platform=self.platform,
            redundancy=self.config.redundancy,
            inference=self.make_inference(),
            oracle=self.oracle,
            pipeline=self.config.pipeline,
        )
        self._closed = False
        self._root_span = self.tracer.span(
            "engine", seed=self.config.seed, inference=self.config.inference
        )

    # ------------------------------------------------------------------ #
    # Declarative interface
    # ------------------------------------------------------------------ #

    def sql(self, text: str) -> list[QueryResult | StatementResult]:
        """Run a CrowdSQL script."""
        return self._session.execute(text)

    def query(self, text: str) -> QueryResult:
        """Run a script ending in SELECT; return its rows."""
        return self._session.query(text)

    def explain(self, text: str) -> str:
        """Show the (optimized) plan and estimated crowd cost."""
        return self._session.explain(text)

    def table(self, name: str) -> Table:
        """Look up a table in the engine's catalog."""
        return self.database.table(name)

    @property
    def session(self) -> CrowdSQLSession:
        """The CrowdSQL session :meth:`sql` runs on."""
        return self._session

    # ------------------------------------------------------------------ #
    # Imperative operators
    # ------------------------------------------------------------------ #

    def make_inference(self) -> TruthInference:
        """A fresh configured inference method, recording on this engine's
        tracer and registry."""
        inference = self.config.make_inference()
        inference.tracer, inference.metrics = self.tracer, self.metrics
        return inference

    def filter(
        self,
        items: Sequence[Any],
        question: str,
        truth_fn: Callable[[Any], bool],
        adaptive: bool = True,
        **kwargs: Any,
    ) -> FilterResult:
        """Crowd-filter *items* by a human-judged predicate."""
        if adaptive:
            op = AdaptiveFilter(self.platform, question, truth_fn=truth_fn, **kwargs)
        else:
            op = FixedKFilter(
                self.platform,
                question,
                truth_fn=truth_fn,
                redundancy=kwargs.pop("redundancy", self.config.redundancy),
                **kwargs,
            )
        return op.run(items)

    def join(
        self,
        records: Sequence[Any],
        truth_fn: Callable[[Any, Any], bool],
        prune_threshold: float | None = 0.3,
        use_transitivity: bool = True,
        **kwargs: Any,
    ) -> JoinResult:
        """Entity-resolve *records* (machine pruning + transitivity on)."""
        pruner = (
            SimilarityPruner(prune_threshold) if prune_threshold is not None else None
        )
        op = CrowdJoin(
            self.platform,
            truth_fn,
            pruner=pruner,
            use_transitivity=use_transitivity,
            redundancy=kwargs.pop("redundancy", self.config.redundancy),
            inference=kwargs.pop("inference", self.make_inference()),
            **kwargs,
        )
        return op.run(records)

    def sort(
        self,
        items: Sequence[Any],
        score_fn: Callable[[Any], float],
        strategy: str = "merge",
        **kwargs: Any,
    ) -> SortResult:
        """Crowd-sort *items* best-first with the chosen strategy."""
        if strategy not in _SORT_STRATEGIES:
            raise ConfigurationError(
                f"unknown sort strategy {strategy!r}; available: {_SORT_STRATEGIES}"
            )
        redundancy = kwargs.pop("redundancy", self.config.redundancy)
        if strategy == "rating":
            return rating_sort(self.platform, items, score_fn, redundancy, **kwargs)
        if strategy == "hybrid":
            return hybrid_sort(self.platform, items, score_fn, redundancy, **kwargs)
        comparator = CrowdComparator(
            self.platform,
            items,
            score_fn,
            redundancy=redundancy,
            inference=kwargs.pop("inference", self.make_inference()),
            **kwargs,
        )
        if strategy == "all_pairs":
            return all_pairs_sort(comparator)
        return merge_sort_crowd(comparator)

    def max(
        self,
        items: Sequence[Any],
        score_fn: Callable[[Any], float],
        fan_in: int = 2,
        **kwargs: Any,
    ) -> TopKResult:
        """Find the best item by tournament."""
        comparator = CrowdComparator(
            self.platform,
            items,
            score_fn,
            redundancy=kwargs.pop("redundancy", self.config.redundancy),
            inference=kwargs.pop("inference", self.make_inference()),
            **kwargs,
        )
        return tournament_max(comparator, fan_in=fan_in)

    def topk(
        self,
        items: Sequence[Any],
        score_fn: Callable[[Any], float],
        k: int,
        fan_in: int = 2,
        **kwargs: Any,
    ) -> TopKResult:
        """Find the best k items by repeated tournaments."""
        comparator = CrowdComparator(
            self.platform,
            items,
            score_fn,
            redundancy=kwargs.pop("redundancy", self.config.redundancy),
            inference=kwargs.pop("inference", self.make_inference()),
            **kwargs,
        )
        return topk_tournament(comparator, k=k, fan_in=fan_in)

    def count(
        self,
        items: Sequence[Any],
        question: str,
        truth_fn: Callable[[Any], bool],
        sample_size: int,
        **kwargs: Any,
    ) -> CountResult:
        """Estimate how many items satisfy a predicate, by sampling."""
        op = CrowdCount(
            self.platform,
            question,
            truth_fn,
            redundancy=kwargs.pop("redundancy", self.config.redundancy),
            inference=kwargs.pop("inference", self.make_inference()),
            seed=kwargs.pop("seed", self.config.seed),
            **kwargs,
        )
        return op.run(items, sample_size=sample_size)

    def collect(self, question: str, max_queries: int, **kwargs: Any) -> CollectResult:
        """Open-world enumeration (requires collector workers in the pool)."""
        stop_at_coverage = kwargs.pop("stop_at_coverage", None)
        op = CrowdCollect(self.platform, question, **kwargs)
        return op.run(max_queries=max_queries, stop_at_coverage=stop_at_coverage)

    def fill(
        self,
        table: Table | str,
        truth_fn: Callable[[dict[str, Any], str], Any],
        **kwargs: Any,
    ) -> FillResult:
        """Resolve a table's CNULL cells via the crowd."""
        target = self.database.table(table) if isinstance(table, str) else table
        op = CrowdFill(
            self.platform,
            truth_fn=truth_fn,
            redundancy=kwargs.pop("redundancy", self.config.redundancy),
            inference=kwargs.pop("inference", self.make_inference()),
            **kwargs,
        )
        return op.run(target)

    def categorize(
        self,
        items: Sequence[Any],
        categories: Sequence[Any],
        truth_fn: Callable[[Any], Any],
        **kwargs: Any,
    ) -> CategorizeResult:
        """Crowd GROUP BY into a fixed taxonomy."""
        op = CrowdCategorize(
            self.platform,
            categories,
            truth_fn=truth_fn,
            redundancy=kwargs.pop("redundancy", self.config.redundancy),
            inference=kwargs.pop("inference", self.make_inference()),
            **kwargs,
        )
        return op.run(items)

    def skyline(
        self,
        items: Sequence[Any],
        dimension_scores: Sequence[Callable[[Any], float]],
        **kwargs: Any,
    ):
        """Crowd skyline over multiple subjective dimensions."""
        from repro.operators.skyline import CrowdSkyline

        op = CrowdSkyline(
            self.platform,
            items,
            dimension_scores,
            redundancy=kwargs.pop("redundancy", self.config.redundancy),
            inference=kwargs.pop("inference", self.make_inference()),
            **kwargs,
        )
        return op.run()

    def match_schemas(
        self,
        source_attributes: Sequence[str],
        target_attributes: Sequence[str],
        truth: dict[str, str],
        **kwargs: Any,
    ):
        """Crowd schema matching between two attribute lists."""
        from repro.operators.schema_matching import CrowdSchemaMatcher

        matcher = CrowdSchemaMatcher(
            self.platform,
            truth,
            redundancy=kwargs.pop("redundancy", self.config.redundancy),
            inference=kwargs.pop("inference", self.make_inference()),
            **kwargs,
        )
        return matcher.run(source_attributes, target_attributes)

    def plan(
        self,
        graph: dict[Any, Sequence[Any]],
        edge_score: Callable[[Any, Any], float],
        start: Any,
        steps: int,
        strategy: str = "beam",
        **kwargs: Any,
    ):
        """Crowd-guided planning (greedy or beam) over a successor graph."""
        from repro.operators.plan import CrowdPlanner

        if strategy not in ("greedy", "beam"):
            raise ConfigurationError("plan strategy must be 'greedy' or 'beam'")
        width = kwargs.pop("width", 3)
        planner = CrowdPlanner(
            self.platform,
            graph,
            edge_score,
            redundancy=kwargs.pop("redundancy", self.config.redundancy),
            inference=kwargs.pop("inference", self.make_inference()),
            **kwargs,
        )
        if strategy == "greedy":
            return planner.greedy(start, steps)
        return planner.beam(start, steps, width=width)

    def find_fix_verify(self, documents: Sequence[Any], **kwargs: Any):
        """Find-Fix-Verify text correction over FfvDocument objects."""
        from repro.operators.findfixverify import FindFixVerify

        workflow = FindFixVerify(
            self.platform,
            inference=kwargs.pop("inference", self.make_inference()),
            **kwargs,
        )
        return workflow.run(documents)

    # ------------------------------------------------------------------ #
    # Robustness: degraded gathering and checkpoint/resume
    # ------------------------------------------------------------------ #

    def gather(self, tasks: Sequence[Any], redundancy: int | None = None):
        """Collect answers for raw tasks under the configured failure policy.

        Returns a :class:`~repro.recovery.degrade.DegradedResult`: per-task
        answers, failure records, per-tuple confidences (via the engine's
        inference method), and a coverage report. Under the default
        ``failure_policy="fail"`` this raises on the first unrecoverable
        task, exactly like :meth:`SimulatedPlatform.collect`.
        """
        from repro.recovery.degrade import DegradedResult

        redundancy = redundancy or self.config.redundancy
        run = self.platform.scheduler.run(list(tasks), redundancy=redundancy)
        inferred = self.make_inference().infer_answered(run.answers)
        return DegradedResult.from_answers(
            tasks, run.answers, run.failures, redundancy, inference=inferred
        )

    def checkpoint(self, directory: str, extra: dict | None = None) -> None:
        """Snapshot platform/scheduler/EM state and the catalog to *directory*.

        The run state goes to ``checkpoint.json`` and every table to
        ``db/``. *extra* carries the caller's progress markers (the CLI
        records ``statements_done``) and must be JSON-serializable.
        """
        from repro.data.persistence import save_database
        from repro.recovery.checkpoint import Checkpoint

        Checkpoint.capture(
            self.platform, inference=self._session.inference, extra=extra
        ).save(directory)
        save_database(self.database, Path(directory) / "db")

    def restore_checkpoint(self, directory: str) -> dict:
        """Restore a snapshot written by :meth:`checkpoint` into this engine.

        The engine must be configured identically to the one that wrote the
        snapshot (same seed, pool size, batch knobs); the checkpoint then
        overwrites the mutable run state — RNG streams, pool membership,
        answer log, spend, scheduler clock — so dispatching continues
        bit-identically to a run that was never interrupted. The catalog
        is replaced by the snapshot's tables. Returns the snapshot's
        *extra* progress markers.
        """
        from repro.data.persistence import load_database
        from repro.errors import CheckpointError
        from repro.recovery.checkpoint import Checkpoint

        checkpoint = Checkpoint.load(directory)
        try:
            database = load_database(Path(directory) / "db")
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint tables: {exc}") from exc
        checkpoint.restore(self.platform, inference=self._session.inference)
        self.database = self._session.database = database
        return checkpoint.extra

    # ------------------------------------------------------------------ #
    # Accounting
    # ------------------------------------------------------------------ #

    def metrics_report(self) -> str:
        """Human-readable dump of the engine's metrics registry."""
        return self.metrics.report()

    def run_status(self) -> dict[str, Any]:
        """Live run snapshot: the ``/run`` endpoint's JSON payload.

        Safe to call from the server thread — every field is a scalar
        read of engine state (the GIL makes each read atomic).
        """
        import math

        stats = self.platform.stats
        budget = self.platform.budget
        remaining = self.platform.remaining_budget
        hits = stats.cache_hits
        misses = stats.cache_misses
        requests = hits + misses
        scheduler = self.platform.scheduler
        return {
            "current_statement": self._session.current_statement,
            "budget": {
                "limit": None if math.isinf(budget) else budget,
                "spent": stats.cost_spent,
                "remaining": None if math.isinf(remaining) else remaining,
            },
            "answers_collected": stats.answers_collected,
            "hits_published": stats.tasks_published,
            "batches_dispatched": stats.batches_dispatched,
            "simulated_clock": scheduler.simulated_clock,
            "cache": {
                "enabled": self.platform.cache is not None,
                "hits": hits,
                "misses": misses,
                "hit_ratio": (hits / requests) if requests else 0.0,
                "answers_reused": stats.cache_answers_reused,
            },
            "hedges": {
                "enabled": scheduler.hedge_state is not None,
                "launched": stats.hedges_launched,
                "won": stats.hedges_won,
                "lost": stats.hedges_lost,
                "cancelled": stats.hedges_cancelled,
                "refunded": stats.hedge_cost_refunded,
            },
            "breakers": [
                {"name": b.name, "tripped": b.tripped} for b in scheduler.breakers
            ],
        }

    def close(self) -> None:
        """End the root span and flush the trace file.

        With a configured ``cache_path``, the answer cache is first spilled
        to disk so the next run replays this one's answers; the trace
        closes even when the spill fails, and the spill's error is raised.
        Idempotent, and a no-op for an engine without observability or a
        cache path. The engine stays usable afterwards — only tracing stops.
        """
        if self._closed:
            return
        self._closed = True
        try:
            if self.platform.cache is not None and self.config.cache_path:
                self.platform.cache.save(self.config.cache_path)
        finally:
            self.tracer.close()

    def __enter__(self) -> "CrowdEngine":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    @property
    def scheduler(self):
        """The platform's batch execution runtime."""
        return self.platform.scheduler

    @property
    def cache(self):
        """The platform's answer cache (None when caching is off)."""
        return self.platform.cache

    @property
    def stats(self) -> PlatformStats:
        return self.platform.stats

    @property
    def spent(self) -> float:
        return self.platform.stats.cost_spent

    @property
    def remaining_budget(self) -> float:
        return self.platform.remaining_budget
