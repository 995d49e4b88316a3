"""Crowd-powered COUNT / aggregate estimation by sampling.

Counting how many items of a large population satisfy a human-judged
predicate. Instead of filtering everything (cost = n * redundancy), label a
random sample and extrapolate (:mod:`repro.cost.sampling`), trading a
confidence interval for an order-of-magnitude cost cut — the tutorial's
selectivity-estimation narrative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np

from repro.cost.sampling import Estimate, estimate_count, sample_indices
from repro.errors import ConfigurationError
from repro.operators.filter import NO, YES
from repro.platform.platform import SimulatedPlatform
from repro.platform.task import Task, TaskType
from repro.quality.truth import MajorityVote, TruthInference


@dataclass
class CountResult:
    """Outcome of a sampling-based crowd count."""

    estimate: Estimate
    sample_indices: list[int]
    questions_asked: int
    cost: float

    @property
    def value(self) -> float:
        return self.estimate.value

    @property
    def interval(self) -> tuple[float, float]:
        return self.estimate.interval


class CrowdCount:
    """Sampling-based count operator.

    Args:
        platform: Marketplace.
        question: The predicate text shown to workers.
        truth_fn: Item -> bool ground truth (simulation only).
        redundancy: Votes per sampled item.
        inference: Vote aggregation (default majority).
        seed: Sampling RNG seed.
    """

    def __init__(
        self,
        platform: SimulatedPlatform,
        question: str,
        truth_fn: Callable[[Any], bool],
        redundancy: int = 3,
        inference: TruthInference | None = None,
        seed: int | None = None,
    ):
        if redundancy < 1:
            raise ConfigurationError("redundancy must be >= 1")
        self.platform = platform
        self.question = question
        self.truth_fn = truth_fn
        self.redundancy = redundancy
        self.inference = inference or MajorityVote()
        self.rng = np.random.default_rng(seed)

    def run(
        self,
        items: Sequence[Any],
        sample_size: int,
        confidence: float = 0.95,
    ) -> CountResult:
        """Estimate how many of *items* satisfy the predicate."""
        if sample_size < 1:
            raise ConfigurationError("sample_size must be >= 1")
        before = self.platform.stats.cost_spent
        chosen = sample_indices(len(items), sample_size, self.rng)
        tasks = []
        for index in chosen:
            item = items[index]
            tasks.append(
                Task(
                    TaskType.SINGLE_CHOICE,
                    question=f"{self.question} — item: {item}",
                    options=(YES, NO),
                    payload={"item_index": index},
                    truth=YES if self.truth_fn(item) else NO,
                )
            )
        collected = self.platform.collect(tasks, redundancy=self.redundancy)
        truths = self.inference.infer_answered(collected).truths
        # Only sampled items that got answers count towards the estimate.
        labels = [truths[t.task_id] == YES for t in tasks if t.task_id in truths]
        if labels:
            estimate = estimate_count(labels, len(items), confidence)
        else:
            estimate = Estimate(
                value=math.nan, stderr=math.inf, confidence=confidence, sample_size=0
            )
        return CountResult(
            estimate=estimate,
            sample_indices=chosen,
            questions_asked=len(tasks) * self.redundancy,
            cost=self.platform.stats.cost_spent - before,
        )

    def exact(self, items: Sequence[Any]) -> CountResult:
        """Exhaustive variant (the expensive baseline the sampler beats)."""
        result = self.run(items, sample_size=len(items), confidence=0.999999)
        return result
