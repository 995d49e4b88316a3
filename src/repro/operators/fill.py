"""Crowd table completion (the CrowdFill / CNULL-resolution operator).

Walk a table's crowd-unknown cells, buy FILL answers for each, aggregate
with a truth-inference method, and write the winners back. This is the
operator CrowdSQL's executor invokes when a query touches CROWD columns
holding CNULL.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.data.table import Table
from repro.errors import ConfigurationError
from repro.platform.platform import SimulatedPlatform
from repro.platform.task import Task, TaskType
from repro.quality.truth import MajorityVote, TruthInference


@dataclass
class FillResult:
    """Outcome of a table-completion run."""

    filled_cells: int
    questions_asked: int
    cost: float
    values: dict[tuple[int, str], Any] = field(default_factory=dict)
    confidences: dict[tuple[int, str], float] = field(default_factory=dict)


class CrowdFill:
    """Fill a table's CNULL cells with crowdsourced values.

    Args:
        platform: Marketplace.
        truth_fn: ``(row, column) -> value`` ground truth used to drive the
            simulated workers (a real deployment would omit it and rely on
            workers' world knowledge).
        redundancy: Answers per cell.
        inference: Aggregation over the string answers (default majority —
            the standard choice for open-ended fill).
        question_fn: Renders the prompt for a (row, column) cell.
    """

    def __init__(
        self,
        platform: SimulatedPlatform,
        truth_fn: Callable[[dict[str, Any], str], Any] | None = None,
        redundancy: int = 3,
        inference: TruthInference | None = None,
        question_fn: Callable[[dict[str, Any], str], str] | None = None,
    ):
        if redundancy < 1:
            raise ConfigurationError("redundancy must be >= 1")
        self.platform = platform
        self.truth_fn = truth_fn
        self.redundancy = redundancy
        self.inference = inference or MajorityVote()
        self.question_fn = question_fn or (
            lambda row, column: f"Provide the value of {column!r} for record {row!r}."
        )

    def run(
        self,
        table: Table,
        limit: int | None = None,
        columns: tuple[str, ...] | None = None,
    ) -> FillResult:
        """Resolve up to *limit* CNULL cells of *table* in place.

        When *columns* is given, only cells of those crowd columns are
        resolved (the optimizer prunes fills to referenced columns).
        """
        before = self.platform.stats.cost_spent
        cells = table.cnull_cells()
        if columns is not None:
            wanted = set(columns)
            cells = [(rowid, col) for rowid, col in cells if col in wanted]
        if limit is not None:
            cells = cells[:limit]
        if not cells:
            return FillResult(filled_cells=0, questions_asked=0, cost=0.0)

        tasks: dict[str, tuple[int, str]] = {}
        task_list = []
        for rowid, column in cells:
            row = table.row(rowid).as_dict()
            truth = self.truth_fn(row, column) if self.truth_fn is not None else None
            task = Task(
                TaskType.FILL,
                question=self.question_fn(row, column),
                payload={"table": table.name, "rowid": rowid, "column": column},
                truth=truth,
            )
            tasks[task.task_id] = (rowid, column)
            task_list.append(task)

        collected = self.platform.collect(task_list, redundancy=self.redundancy)
        inferred = self.inference.infer_answered(collected)

        result = FillResult(
            filled_cells=0,
            questions_asked=len(task_list) * self.redundancy,
            cost=0.0,
        )
        for task in task_list:
            if task.task_id not in inferred.truths:
                continue  # no answers landed: the cell stays CNULL
            rowid, column = tasks[task.task_id]
            value = inferred.truths[task.task_id]
            table.update_cell(rowid, column, value)
            result.values[(rowid, column)] = value
            result.confidences[(rowid, column)] = inferred.confidences.get(
                task.task_id, 0.0
            )
            result.filled_cells += 1
        result.cost = self.platform.stats.cost_spent - before
        return result

    def accuracy_against(
        self,
        result: FillResult,
        expected: dict[tuple[int, str], Any],
    ) -> float:
        """Fraction of filled cells matching *expected* values."""
        common = [cell for cell in result.values if cell in expected]
        if not common:
            return 0.0
        hits = sum(1 for cell in common if result.values[cell] == expected[cell])
        return hits / len(common)
