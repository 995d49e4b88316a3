"""Streaming executor: a LIMIT over a CROWDFILTER cancels HITs it won't read.

The barrier :class:`~repro.lang.executor.Executor` buys each crowd
operator's questions in one scheduler run and hands its consumer nothing
until the whole run lands, so a LIMIT above a crowd filter pays for every
answer below it.

:class:`StreamingExecutor` compiles exactly one plan shape: a LIMIT over
optional DISTINCT, projection and ORDER BY, above a CROWDFILTER on a
machine-only child whose predicate is one crowd predicate, as the
optimizer leaves each crowd conjunct. A condition that combines crowd
predicates under OR or NOT, or keeps a machine conjunct (an unoptimized
plan), runs on the barrier executor.

* the machine-only child is resolved vectorized up front via the columnar
  fast paths; under an ORDER BY its rows are pre-sorted, so emission order
  is final order;
* every crowd question is planned by the barrier executor's planning step
  (:meth:`Executor._plan_questions`) in row order, then handed to the
  :class:`~repro.platform.batch.BatchScheduler` as *one* run;
* cache hits are decided before the first wave, and as each batch (a
  *wave*) lands its verdicts are emitted in planning order;
* once the LIMIT has emitted enough rows, still-pending HITs are cancelled
  through the scheduler's cancel seam (the one hedging refunds ride
  through), never published, and the avoided spend is booked in
  ``ExecutionStats``, platform stats, metrics, and the statement span.

Every other plan runs through the inherited barrier implementation:
without a LIMIT over a crowd filter nothing can be cancelled, so a stream
would buy exactly what the barrier buys. Without an ORDER BY the stream
plans the barrier's questions in the barrier's order, so a LIMIT that is
never reached leaves votes, rows, stats, cache entries and the simulated
clock equal to the barrier's at the same seed. The ORDER BY pre-sort
reorders question planning: that path trades the barrier-identical RNG
stream for cancelled HITs, by design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.data.expressions import CrowdPredicate
from repro.lang.executor import ExecutionStats, Executor, QueryResult, distinct_key
from repro.lang.planner import (
    CrowdFilterNode,
    DistinctNode,
    LimitNode,
    LogicalPlan,
    OrderNode,
    PlanNode,
    ProjectNode,
    machine_only,
)
from repro.obs.instrument import operator_span
# Not called here: planning goes through Executor._plan_questions. Kept so
# perfbench's tracer, which wraps this module's signature_of, still finds it.
from repro.platform.cache import signature_of  # noqa: F401
from repro.platform.task import Task


class _Unsupported(Exception):
    """Internal signal: the plan shape has no streaming compilation."""


@dataclass
class _Pipeline:
    """One compiled streaming statement: a crowd filter stage under a LIMIT.

    Attributes:
        filter_node: The crowd filter whose verdicts drive the stream; its
            predicate is one :class:`CrowdPredicate`.
        order: ORDER BY keys above the stream (or None).
        project: Projection columns above the stream (or None).
        distinct: Whether DISTINCT applies to emitted rows.
        limit: The LIMIT whose rows, once emitted, cancel pending HITs.
    """

    filter_node: CrowdFilterNode
    order: tuple[tuple[str, bool], ...] | None
    project: tuple[str, ...] | None
    distinct: bool
    limit: int


class StreamingExecutor(Executor):
    """Drop-in for :class:`Executor` (the ``pipeline=True`` path).

    Construction matches :class:`Executor`. A LIMIT over a CROWDFILTER of
    one crowd predicate streams its crowd waves and cancels the HITs the
    LIMIT no longer needs; every other statement runs through the
    inherited barrier implementation.
    """

    def execute(self, plan: LogicalPlan) -> QueryResult:
        """Run *plan*, streaming when compilable, barrier otherwise."""
        try:
            pipe = self._compile(plan.root)
        except _Unsupported:
            return super().execute(plan)
        columns = self._schema_of(plan.root).column_names  # raises before any purchase
        stats = ExecutionStats()
        rows = self._run_pipeline(pipe, columns, stats)
        return QueryResult(
            columns=columns,
            rows=rows,
            stats=stats,
            plan_text=plan.explain(),
        )

    # ------------------------------------------------------------------ #
    # Compilation
    # ------------------------------------------------------------------ #

    def _compile(self, node: PlanNode) -> _Pipeline:
        """Peel a LIMIT and its sinks off *node* down to one crowd filter.

        Raises :class:`_Unsupported` for any other shape; the caller falls
        back to barrier execution.
        """
        if not isinstance(node, LimitNode):
            # Nothing can cancel: the barrier buys the same answers.
            raise _Unsupported
        limit = node.limit
        node = node.child
        distinct = isinstance(node, DistinctNode)
        if distinct:
            node = node.child
        project: tuple[str, ...] | None = None
        if isinstance(node, ProjectNode):
            project = node.columns
            node = node.child
        order: tuple[tuple[str, bool], ...] | None = None
        if isinstance(node, OrderNode):
            order = node.keys
            node = node.child
        if (
            not isinstance(node, CrowdFilterNode)
            or not isinstance(node.predicate, CrowdPredicate)
            or not machine_only(node.child)
        ):
            # A machine-only predicate buys nothing; a compound crowd
            # condition buys predicate by predicate on the barrier path.
            raise _Unsupported
        return _Pipeline(
            filter_node=node,
            order=order,
            project=project,
            distinct=distinct,
            limit=limit,
        )

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def _run_pipeline(
        self, pipe: _Pipeline, columns: tuple[str, ...], stats: ExecutionStats
    ) -> list[dict[str, Any]]:
        """Resolve the machine child, then stream its crowd filter to the LIMIT."""
        _schema, rows = self._run(pipe.filter_node.child, stats)
        if pipe.order is not None:
            # TOP-K: stable sort commutes with filtering, so rows match the
            # barrier's filter-then-sort exactly.
            rows = self._apply_order(rows, pipe.order)
        with operator_span(self.platform, "crowd_filter", items=len(rows)):
            return self._stream(pipe, rows, columns, stats)

    def _stream(
        self,
        pipe: _Pipeline,
        rows: list[dict[str, Any]],
        columns: tuple[str, ...],
        stats: ExecutionStats,
    ) -> list[dict[str, Any]]:
        """Plan every crowd question on *rows*, then stream verdict waves."""
        # The barrier executor's planning step: questions in row order, one
        # signature each, one task per new signature.
        signatures, tasks = self._plan_questions(pipe.filter_node.predicate, rows, stats)
        metrics = self.platform.metrics
        labels = {"operator": "crowd_filter"}

        out: list[dict[str, Any]] = []
        seen: set[tuple[Any, ...]] = set()
        state = {"frontier": 0, "done": pipe.limit <= 0}
        resolved_ids: set[str] = set()
        cancelled_ids: set[str] = set()

        def emit(row: dict[str, Any]) -> None:
            if pipe.project is not None:
                row = {c: row[c] for c in pipe.project}
            if pipe.distinct:
                key = distinct_key(row, columns)
                if key in seen:
                    return
                seen.add(key)
            out.append(row)
            if len(out) >= pipe.limit:
                state["done"] = True

        def advance() -> None:
            # Emission strictly follows planning order: a resolved verdict
            # for row 7 waits until rows 0-6 are decided, keeping output
            # deterministic regardless of wave arrival order.
            while state["frontier"] < len(signatures) and not state["done"]:
                signature = signatures[state["frontier"]]
                if signature not in self._verdicts:
                    return
                row = rows[state["frontier"]]
                state["frontier"] += 1
                if self._verdicts[signature]:
                    emit(row)

        def on_batch(batch: list[Task], run_result: Any) -> None:
            for task in batch:
                if task.task_id in resolved_ids:
                    continue
                resolved_ids.add(task.task_id)
                self._decide(task, run_result.answers.get(task.task_id, []), stats)
            advance()
            in_flight = len(tasks) - len(resolved_ids) - len(cancelled_ids)
            metrics.set_gauge("operators.in_flight", float(in_flight), labels=labels)

        def cancel(task: Task) -> str | None:
            if state["done"]:
                cancelled_ids.add(task.task_id)
                return "early_termination"
            return None

        advance()  # memoized/pruned verdicts may already decide a prefix

        pstats = self.platform.stats
        cost0 = pstats.cost_spent
        cancelled0 = pstats.tasks_cancelled
        refund0 = pstats.cancel_cost_refunded
        if tasks:
            metrics.set_gauge("operators.in_flight", float(len(tasks)), labels=labels)
            run_result = self.platform.scheduler.run(
                tasks,
                redundancy=self.redundancy,
                cancel=cancel,
                on_batch=on_batch,
            )
            # Final drain: cache hits and landed waves were decided in
            # on_batch, but halted (breaker/budget) batches never reach it —
            # resolve what is still undecided, barrier-style.
            for task in tasks:
                if task.task_id in resolved_ids or task.task_id in cancelled_ids:
                    continue
                self._decide(task, run_result.answers.get(task.task_id, []), stats)
            advance()
            metrics.set_gauge("operators.in_flight", 0.0, labels=labels)
        stats.crowd_cost += pstats.cost_spent - cost0
        stats.tasks_cancelled += int(pstats.tasks_cancelled - cancelled0)
        stats.cost_avoided += pstats.cancel_cost_refunded - refund0
        return out
