"""Streaming executor: a LIMIT over a CROWDFILTER plans only what it reaches.

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
* crowd questions are planned on demand by the barrier executor's planner
  (:meth:`Executor._plan_rows`), in row order, inside *one*
  :class:`~repro.platform.batch.BatchScheduler` run: the scheduler calls
  the stream's ``more`` hook whenever its next wave is short, and each
  call plans rows until it lists one new task;
* the run resolves each task against the answer cache as it takes it, so
  cache hits are decided at once, and as each batch (a *wave*) lands its
  verdicts are decided with one inference call and emitted in planning
  order;
* once the LIMIT has emitted enough rows the stream stops planning. A
  planned but undecided task holds the emission frontier, so the LIMIT is
  reached only when nothing planned is pending: waves hold the tasks a
  fully planned list would give them, and nothing is left to withdraw.
  The candidates never reached count as cancelled at a yes/no question's
  price, in ``ExecutionStats``, platform stats, metrics, and the
  statement span.

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
from repro.lang.executor import (
    Columns,
    ExecutionStats,
    Executor,
    QueryResult,
    distinct_key,
    input_columns,
)
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
# Not called here: planning goes through Executor._plan_rows. Kept so
# perfbench's tracer, which wraps this module's signature_of, still finds it.
from repro.platform.cache import signature_of  # noqa: F401
from repro.platform.task import Task, TaskType


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
        limit: The LIMIT whose rows, once emitted, stop the planning.
        reads: The columns the stream reads of the crowd filter's child
            (:func:`~repro.lang.executor.input_columns` down the chain).
    """

    filter_node: CrowdFilterNode
    order: tuple[tuple[str, bool], ...] | None
    project: tuple[str, ...] | None
    distinct: bool
    limit: int
    reads: Columns


class StreamingExecutor(Executor):
    """Drop-in for :class:`Executor` (the ``pipeline=True`` path).

    Construction matches :class:`Executor`. A LIMIT over a CROWDFILTER of
    one crowd predicate plans its questions as its crowd waves need them
    and stops at the LIMIT; every other statement runs through the
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
        root = node
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
        reads: Columns = None  # the root's consumer reads every column
        for above in root.walk():  # the LIMIT down to the crowd filter
            reads = input_columns(above, reads)
            if above is node:
                break
        return _Pipeline(
            filter_node=node,
            order=order,
            project=project,
            distinct=distinct,
            limit=limit,
            reads=reads,
        )

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def _run_pipeline(
        self, pipe: _Pipeline, columns: tuple[str, ...], stats: ExecutionStats
    ) -> list[dict[str, Any]]:
        """Resolve the machine child, then stream its crowd filter to the LIMIT."""
        _schema, rows = self._run(pipe.filter_node.child, stats, pipe.reads)
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
        """Plan crowd questions on *rows* as the waves pull them, to the LIMIT."""
        planner = self._plan_rows(pipe.filter_node.predicate, rows, stats)
        metrics = self.platform.metrics
        labels = {"operator": "crowd_filter"}

        out: list[dict[str, Any]] = []
        seen: set[tuple[Any, ...]] = set()
        signatures: list[str] = []  # one per planned row
        tasks: list[Task] = []  # the scheduler run's list, grown by more()
        state = {"frontier": 0, "done": pipe.limit <= 0}
        resolved_ids: set[str] = set()

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

        def more() -> None:
            # Plan rows until one new task is listed or the LIMIT is reached;
            # a memoized, duplicate or pruned row may advance the frontier.
            while not state["done"]:
                planned = next(planner, None)
                if planned is None:
                    return
                signature, task = planned
                signatures.append(signature)
                if task is not None:
                    tasks.append(task)
                    return
                advance()

        def on_batch(batch: list[Task], run_result: Any) -> None:
            undecided = []
            for task in batch:
                if task.task_id not in resolved_ids:
                    resolved_ids.add(task.task_id)
                    undecided.append(task)
            if undecided:
                self._decide(undecided, run_result.answers, stats)
            advance()
            in_flight = len(tasks) - len(resolved_ids)
            metrics.set_gauge("operators.in_flight", float(in_flight), labels=labels)

        cost0 = self.platform.stats.cost_spent
        more()
        if tasks:
            run_result = self.platform.scheduler.run(
                tasks, redundancy=self.redundancy, on_batch=on_batch, more=more
            )
            # Final drain: cache hits and landed waves were decided in
            # on_batch, but halted (breaker/budget) batches never reach it —
            # decide what is still undecided, barrier-style.
            undecided = [task for task in tasks if task.task_id not in resolved_ids]
            if undecided:
                self._decide(undecided, run_result.answers, stats)
            advance()
            metrics.set_gauge("operators.in_flight", 0.0, labels=labels)
        stats.crowd_cost += self.platform.stats.cost_spent - cost0
        # The candidates past the frontier were never planned: count them
        # cancelled, this statement's own, at a yes/no question's price.
        unreached = len(rows) - len(signatures)
        stats.tasks_cancelled += unreached
        stats.cost_avoided += self.platform.book_cancelled(
            unreached, TaskType.SINGLE_CHOICE, self.redundancy, "early_termination"
        )
        return out
