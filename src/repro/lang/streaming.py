"""Streaming pipelined executor: crowd answers flow downstream per wave.

The barrier :class:`~repro.lang.executor.Executor` buys each crowd
operator's questions in one scheduler run but hands its consumer nothing
until the whole run lands, so an early-terminating consumer (TOP-K, LIMIT)
keeps paying for upstream answers it will never read.

:class:`StreamingExecutor` compiles supported plan shapes into a pipeline:

* the machine-decidable input (scan/filter chains, the join's hash side)
  is resolved vectorized up front via the columnar fast paths;
* every crowd question of the statement is planned by the barrier
  executor's planning step (:meth:`Executor._plan_questions`) on the
  caller's thread in row order, then handed to the
  :class:`~repro.platform.batch.BatchScheduler` as *one* run;
* cache hits are decided before the first wave, and as each batch (a
  *wave*) lands, verdicts propagate downstream immediately — a crowd
  filter feeds the join's probe side while its remaining waves are still
  pending;
* early termination propagates *upstream*: once TOP-K/LIMIT has emitted
  enough rows, still-pending HITs are cancelled through the scheduler's
  cancel seam (the one hedging refunds ride through), never published,
  and the avoided spend is booked in ``ExecutionStats``, platform stats,
  metrics, and the profiler.

Determinism: both executors plan the same questions in the same order and
buy them in one run, so with no early termination the votes, verdicts,
rows, cache entries and simulated clock equal the barrier executor's at
the same seed — at any ``max_parallel``. TOP-K pre-sorts its candidates
(stable sort commutes with filtering), which reorders question planning;
that path trades the barrier-identical RNG stream for cancelled HITs, by
design. Plan shapes the compiler does not cover fall back to the
inherited barrier implementation unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.data.expressions import (
    CrowdPredicate,
    Expression,
    conjoin,
    contains_crowd_predicate,
)
from repro.data.schema import Schema
from repro.errors import ExecutionError
from repro.lang.executor import ExecutionStats, Executor, QueryResult, distinct_key
from repro.lang.planner import (
    CrowdFilterNode,
    DistinctNode,
    JoinNode,
    LimitNode,
    LogicalPlan,
    OrderNode,
    PlanNode,
    ProjectNode,
    machine_only,
)
# Not called here: planning goes through Executor._plan_questions. Kept so
# perfbench's tracer, which wraps this module's signature_of, still finds it.
from repro.platform.cache import signature_of  # noqa: F401
from repro.platform.task import Task


class _Unsupported(Exception):
    """Internal signal: the plan shape has no streaming compilation."""


@dataclass
class _Pipeline:
    """One compiled streaming statement: a crowd filter stage plus sinks.

    Attributes:
        filter_node: The crowd filter whose verdicts drive the stream.
        prefix: Machine-decidable conjunction evaluated per row before any
            crowd question is planned (None when the predicate is bare).
        predicate: The single crowd conjunct the stream resolves.
        join: Machine join the filter's survivors probe into (or None).
        order: ORDER BY keys above the stream (or None).
        project: Projection columns above the stream (or None).
        distinct: Whether DISTINCT applies to emitted rows.
        limit: LIMIT above the stream (or None) — the early-termination
            trigger.
    """

    filter_node: CrowdFilterNode
    prefix: Expression | None
    predicate: CrowdPredicate
    join: JoinNode | None
    order: tuple[tuple[str, bool], ...] | None
    project: tuple[str, ...] | None
    distinct: bool
    limit: int | None


class StreamingExecutor(Executor):
    """Pipelined drop-in for :class:`Executor` (the ``pipeline=on`` path).

    Construction matches :class:`Executor`. Statements whose plan compiles
    to a supported pipeline stream their crowd waves; everything else runs
    through the inherited barrier implementation, so every statement the
    barrier executor accepts is accepted here too.
    """

    def execute(self, plan: LogicalPlan) -> QueryResult:
        """Run *plan*, streaming when compilable, barrier otherwise."""
        try:
            pipe = self._compile(plan.root)
        except _Unsupported:
            return super().execute(plan)
        stats = ExecutionStats()
        schema, rows = self._run_pipeline(pipe, stats)
        return QueryResult(
            columns=schema.column_names,
            rows=rows,
            stats=stats,
            plan_text=plan.explain(),
        )

    # ------------------------------------------------------------------ #
    # Compilation
    # ------------------------------------------------------------------ #

    def _compile(self, node: PlanNode) -> _Pipeline:
        """Peel sinks off *node* down to one streamable crowd filter stage.

        Raises :class:`_Unsupported` for any other shape; the caller falls
        back to barrier execution.
        """
        limit: int | None = None
        distinct = False
        project: tuple[str, ...] | None = None
        order: tuple[tuple[str, bool], ...] | None = None
        if isinstance(node, LimitNode):
            limit = node.limit
            node = node.child
        if isinstance(node, DistinctNode):
            distinct = True
            node = node.child
        if isinstance(node, ProjectNode):
            project = node.columns
            node = node.child
        if isinstance(node, OrderNode):
            order = node.keys
            node = node.child
        join: JoinNode | None = None
        if isinstance(node, JoinNode):
            # Crowd filter below a machine join: survivors stream into the
            # probe side while the hash side builds from machine columns.
            if contains_crowd_predicate(node.condition):
                raise _Unsupported
            if not isinstance(node.left, CrowdFilterNode):
                raise _Unsupported
            if not machine_only(node.right):
                raise _Unsupported
            join = node
            node = node.left
        if not isinstance(node, CrowdFilterNode):
            raise _Unsupported
        if not contains_crowd_predicate(node.predicate):
            # Degenerate crowd filter over a machine predicate: the barrier
            # path already vectorizes it without any crowd purchase.
            raise _Unsupported
        if not machine_only(node.child):
            raise _Unsupported
        shape = self._single_crowd(node.predicate)
        if shape is None:
            # Multi-crowd-conjunct trees (and OR/NOT shapes) keep the
            # barrier's short-circuit purchase order.
            raise _Unsupported
        prefix, predicate = shape
        return _Pipeline(
            filter_node=node,
            prefix=prefix,
            predicate=predicate,
            join=join,
            order=order,
            project=project,
            distinct=distinct,
            limit=limit,
        )

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def _build_probe(
        self,
        left_schema: Schema,
        right_schema: Schema,
        right_rows: list[dict[str, Any]],
        condition: Expression,
    ):
        """Probe closure for one left row; hash side is built eagerly.

        Match emission order per left row equals the barrier join's (right
        insertion order), so streamed output is row-identical.
        """
        split = self._equi_split(condition, left_schema, right_schema)
        if split is None:

            def nested(lrow: dict[str, Any]) -> list[dict[str, Any]]:
                out = []
                for rrow in right_rows:
                    merged = {**lrow, **rrow}
                    if condition.evaluate(merged) is True:
                        out.append(merged)
                return out

            return nested
        keys, residual = split
        lcols = [a for a, _ in keys]
        rcols = [b for _, b in keys]
        index: dict[tuple[Any, ...], list[int]] = {}
        for i, rrow in enumerate(right_rows):
            key = self._join_key([rrow[c] for c in rcols])
            if key is not None:
                index.setdefault(key, []).append(i)
        res_expr = conjoin(residual) if residual else None

        def probe(lrow: dict[str, Any]) -> list[dict[str, Any]]:
            key = self._join_key([lrow[c] for c in lcols])
            if key is None:
                return []
            out = []
            for i in index.get(key, ()):
                merged = {**lrow, **right_rows[i]}
                if res_expr is None or res_expr.evaluate(merged) is True:
                    out.append(merged)
            return out

        return probe

    def _run_pipeline(
        self, pipe: _Pipeline, stats: ExecutionStats
    ) -> tuple[Schema, list[dict[str, Any]]]:
        """Plan every crowd question, then stream verdict waves into sinks."""
        child_schema, rows = self._run(pipe.filter_node.child, stats)
        probe = None
        schema = child_schema
        if pipe.join is not None:
            right_schema, right_rows = self._run(pipe.join.right, stats)
            clashes = set(child_schema.column_names) & set(right_schema.column_names)
            if clashes:
                raise ExecutionError(
                    f"join inputs share column name(s) {sorted(clashes)}; "
                    "rename columns so names are unique"
                )
            schema = child_schema.join(right_schema, "left", "right")
            probe = self._build_probe(
                child_schema, right_schema, right_rows, pipe.join.condition
            )
        if pipe.order is not None:
            for column, _ascending in pipe.order:
                if column not in schema:
                    raise ExecutionError(f"ORDER BY unknown column {column!r}")
        out_schema = schema.project(pipe.project) if pipe.project is not None else schema

        # TOP-K: pre-sort the candidates so emission order is final order
        # and the limit can cancel everything past the k-th survivor.
        # Stable sort commutes with filtering, so rows match the barrier's
        # filter-then-sort exactly.
        topk = pipe.order is not None and pipe.limit is not None and pipe.join is None
        if topk:
            rows = self._apply_order(rows, pipe.order)
        # ORDER BY without a limit (or above a join) needs every survivor
        # before it can sort: collect, then sort at the end.
        drain = pipe.order is not None and not topk

        # The barrier executor's planning step: questions in row order, one
        # signature each, one task per new signature.
        planned, tasks = self._plan_questions(pipe.prefix, pipe.predicate, rows, stats)
        operator = "crowd_join" if pipe.join is not None else "crowd_filter"
        metrics = self.platform.metrics

        out: list[dict[str, Any]] = []
        survivors: list[dict[str, Any]] = []
        seen: set[tuple[Any, ...]] = set()
        state = {"frontier": 0, "done": False}
        resolved_ids: set[str] = set()
        cancelled_ids: set[str] = set()

        def emit(row: dict[str, Any]) -> None:
            matches = probe(row) if probe is not None else [row]
            for merged in matches:
                if drain:
                    survivors.append(merged)
                    continue
                final = (
                    {c: merged[c] for c in pipe.project}
                    if pipe.project is not None
                    else merged
                )
                if pipe.distinct:
                    key = distinct_key(final, out_schema.column_names)
                    if key in seen:
                        continue
                    seen.add(key)
                out.append(final)
                if pipe.limit is not None and len(out) >= pipe.limit:
                    state["done"] = True
                    return

        def advance() -> None:
            # Emission strictly follows planning order: a resolved verdict
            # for row 7 waits until rows 0-6 are decided, keeping output
            # deterministic regardless of wave arrival order.
            while state["frontier"] < len(planned) and not state["done"]:
                ok, signature = planned[state["frontier"]]
                if signature is not None and signature not in self._verdicts:
                    return
                row = rows[state["frontier"]]
                state["frontier"] += 1
                if ok and self._verdicts[signature]:
                    emit(row)

        def on_batch(batch: list[Task], run_result: Any) -> None:
            for task in batch:
                if task.task_id in resolved_ids:
                    continue
                resolved_ids.add(task.task_id)
                self._decide(task, run_result.answers.get(task.task_id, []), stats)
            advance()
            in_flight = len(tasks) - len(resolved_ids) - len(cancelled_ids)
            metrics.set_gauge(
                "operators.in_flight", float(in_flight), labels={"operator": operator}
            )

        def cancel(task: Task) -> str | None:
            if state["done"]:
                cancelled_ids.add(task.task_id)
                return "early_termination"
            return None

        if pipe.limit is not None and pipe.limit <= 0:
            state["done"] = True
        advance()  # memoized/pruned verdicts may already decide a prefix

        pstats = self.platform.stats
        cost0 = pstats.cost_spent
        cancelled0 = pstats.tasks_cancelled
        refund0 = pstats.cancel_cost_refunded
        if tasks:
            metrics.set_gauge(
                "operators.in_flight", float(len(tasks)), labels={"operator": operator}
            )
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
            metrics.set_gauge(
                "operators.in_flight", 0.0, labels={"operator": operator}
            )
        stats.crowd_cost += pstats.cost_spent - cost0
        stats.tasks_cancelled += int(pstats.tasks_cancelled - cancelled0)
        stats.cost_avoided += pstats.cancel_cost_refunded - refund0

        if drain:
            ordered = self._apply_order(survivors, pipe.order)
            if pipe.project is not None:
                ordered = [{c: r[c] for c in pipe.project} for r in ordered]
            if pipe.distinct:
                unique = []
                for row in ordered:
                    key = distinct_key(row, out_schema.column_names)
                    if key not in seen:
                        seen.add(key)
                        unique.append(row)
                ordered = unique
            if pipe.limit is not None:
                ordered = ordered[: pipe.limit]
            return out_schema, ordered
        return out_schema, out
