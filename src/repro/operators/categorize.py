"""Crowd categorization / GROUP BY over human-judged categories.

Assign each item one label from a fixed taxonomy, then group. This is the
crowd GROUP BY the declarative systems expose; it reuses the full quality
stack (redundancy + pluggable truth inference) per item.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.errors import ConfigurationError
from repro.obs.instrument import operator_span
from repro.platform.platform import SimulatedPlatform
from repro.platform.task import Task, TaskType
from repro.quality.truth import MajorityVote, TruthInference


@dataclass
class CategorizeResult:
    """Outcome of a crowd categorization run."""

    labels: dict[int, Any]                 # item index -> category
    groups: dict[Any, list[int]] = field(default_factory=dict)
    questions_asked: int = 0
    cost: float = 0.0
    confidences: dict[int, float] = field(default_factory=dict)

    def accuracy_against(self, truth: Sequence[Any]) -> float:
        """Fraction of items labeled with their true category."""
        if not self.labels:
            return 0.0
        hits = sum(1 for i, label in self.labels.items() if label == truth[i])
        return hits / len(self.labels)


class CrowdCategorize:
    """Categorize items into a fixed label set via the crowd.

    Args:
        platform: Marketplace.
        categories: The taxonomy (task options).
        truth_fn: Item -> true category (simulation only).
        redundancy: Votes per item.
        inference: Vote aggregation (default majority).
        question: Instruction text.
        difficulty_fn: Optional per-item difficulty in [0, 1).
    """

    def __init__(
        self,
        platform: SimulatedPlatform,
        categories: Sequence[Any],
        truth_fn: Callable[[Any], Any] | None = None,
        redundancy: int = 3,
        inference: TruthInference | None = None,
        question: str = "Which category fits this item?",
        difficulty_fn: Callable[[Any], float] | None = None,
    ):
        if len(categories) < 2:
            raise ConfigurationError("need at least two categories")
        if redundancy < 1:
            raise ConfigurationError("redundancy must be >= 1")
        self.platform = platform
        self.categories = tuple(categories)
        self.truth_fn = truth_fn
        self.redundancy = redundancy
        self.inference = inference or MajorityVote()
        self.question = question
        self.difficulty_fn = difficulty_fn

    def run(self, items: Sequence[Any]) -> CategorizeResult:
        """Categorize *items*; returns labels, groups, and accounting."""
        with operator_span(
            self.platform,
            "categorize",
            items=len(items),
            categories=len(self.categories),
            redundancy=self.redundancy,
        ) as span:
            before = self.platform.stats.cost_spent
            tasks = []
            for i, item in enumerate(items):
                truth = self.truth_fn(item) if self.truth_fn is not None else None
                if truth is not None and truth not in self.categories:
                    raise ConfigurationError(
                        f"truth {truth!r} for item {i} is not among the categories"
                    )
                difficulty = self.difficulty_fn(item) if self.difficulty_fn else 0.0
                tasks.append(
                    Task(
                        TaskType.SINGLE_CHOICE,
                        question=f"{self.question} — item: {item}",
                        options=self.categories,
                        payload={"item_index": i},
                        truth=truth,
                        difficulty=difficulty,
                    )
                )
            collected = self.platform.collect(tasks, redundancy=self.redundancy)
            inferred = self.inference.infer_answered(collected)

            labels: dict[int, Any] = {}
            confidences: dict[int, float] = {}
            groups: dict[Any, list[int]] = defaultdict(list)
            for i, task in enumerate(tasks):
                if task.task_id not in inferred.truths:
                    continue  # no answers landed: the item stays unlabelled
                label = inferred.truths[task.task_id]
                labels[i] = label
                confidences[i] = inferred.confidences.get(task.task_id, 0.0)
                groups[label].append(i)
            result = CategorizeResult(
                labels=labels,
                groups=dict(groups),
                questions_asked=len(tasks) * self.redundancy,
                cost=self.platform.stats.cost_spent - before,
                confidences=confidences,
            )
            if self.truth_fn is not None and self.platform.tracer.enabled:
                truth_list = [self.truth_fn(item) for item in items]
                span.set_tag("accuracy", result.accuracy_against(truth_list))
            return result
