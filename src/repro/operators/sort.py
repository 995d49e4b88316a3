"""Crowd-powered sorting (the Qurk CROWDORDER family).

Rank items by a criterion only humans can judge. Implemented strategies,
in the cost/quality order the tutorial discusses:

* :func:`all_pairs_sort` — buy every pairwise comparison, rank by Copeland
  score (win count). Most robust, O(n^2) comparisons.
* :func:`merge_sort_crowd` — comparison-optimal O(n log n) merge sort over
  the crowd comparator. Sensitive to single comparison errors.
* :func:`rating_sort` — one RATE task per item, sort by mean rating.
  O(n) tasks, coarse: close items tie or invert.
* :func:`hybrid_sort` — Qurk's refinement: rating pass first, then buy
  comparisons only for adjacent pairs whose ratings are too close to call.

All strategies share :class:`CrowdComparator`, which caches pair verdicts
and can consult a :class:`~repro.cost.deduction.ComparisonDeducer` so no
implied comparison is ever purchased twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.cost.deduction import ComparisonDeducer
from repro.errors import ConfigurationError
from repro.obs.instrument import operator_span
from repro.platform.platform import SimulatedPlatform
from repro.platform.task import Task, TaskType
from repro.quality.truth import MajorityVote, TruthInference


@dataclass
class SortResult:
    """Outcome of a crowd sort: best-first order plus accounting."""

    order: list[int]                  # item indices, best first
    comparisons_asked: int
    answers_bought: int
    cost: float
    ratings: dict[int, float] = field(default_factory=dict)

    def kendall_tau(self, true_order: Sequence[int]) -> float:
        """Kendall tau-a correlation with a ground-truth order (1 = equal)."""
        position = {item: rank for rank, item in enumerate(self.order)}
        true_position = {item: rank for rank, item in enumerate(true_order)}
        items = list(position)
        n = len(items)
        if n < 2:
            return 1.0
        concordant = 0
        discordant = 0
        for x in range(n):
            for y in range(x + 1, n):
                a, b = items[x], items[y]
                ours = position[a] - position[b]
                truth = true_position[a] - true_position[b]
                if ours * truth > 0:
                    concordant += 1
                elif ours * truth < 0:
                    discordant += 1
        total = n * (n - 1) // 2
        return (concordant - discordant) / total


class CrowdComparator:
    """Buys (and caches) crowd verdicts for "does item i rank above item j?".

    Args:
        platform: Marketplace.
        items: The records being sorted.
        score_fn: Ground-truth utility per item (drives simulated workers
            through the COMPARE payload; never read by the sort logic).
        redundancy: Votes per comparison.
        inference: Vote aggregation (default majority).
        use_deduction: Skip purchases that transitivity already implies.
        question: Task instruction text.
    """

    def __init__(
        self,
        platform: SimulatedPlatform,
        items: Sequence[Any],
        score_fn: Callable[[Any], float],
        redundancy: int = 3,
        inference: TruthInference | None = None,
        use_deduction: bool = False,
        question: str = "Which item ranks higher?",
    ):
        if redundancy < 1:
            raise ConfigurationError("redundancy must be >= 1")
        self.platform = platform
        self.items = list(items)
        self.score_fn = score_fn
        self.redundancy = redundancy
        self.inference = inference or MajorityVote()
        self.deducer = ComparisonDeducer(strict=False) if use_deduction else None
        self.question = question
        self._cache: dict[tuple[int, int], bool] = {}
        self.comparisons_asked = 0
        self.answers_bought = 0

    def _pair_task(self, key: tuple[int, int]) -> Task:
        left, right = self.items[key[0]], self.items[key[1]]
        left_score, right_score = self.score_fn(left), self.score_fn(right)
        return Task(
            TaskType.COMPARE,
            question=f"{self.question} A: {left} | B: {right}",
            options=("left", "right"),
            payload={
                "left": left,
                "right": right,
                "left_score": left_score,
                "right_score": right_score,
            },
            truth="left" if left_score >= right_score else "right",
        )

    def _store(self, key: tuple[int, int], verdict_low_high: bool) -> None:
        self._cache[key] = verdict_low_high
        if self.deducer is not None:
            if verdict_low_high:
                self.deducer.record(key[0], key[1])
            else:
                self.deducer.record(key[1], key[0])

    def prefetch(self, pairs: Sequence[tuple[int, int]]) -> int:
        """Buy verdicts for *pairs* that are not yet known, in one collect.

        Returns the number of comparisons purchased. Callers that know a
        round of comparisons up front, and read every one of them (all-pairs
        sort, tournament rounds), use this so one round costs one batch of
        simulated latency, at every lane count. One inference call decides
        the round, each pair from its own votes
        (:meth:`~repro.quality.truth.TruthInference.infer_each`).
        """
        todo: list[tuple[int, int]] = []
        queued: set[tuple[int, int]] = set()
        for i, j in pairs:
            key = (min(i, j), max(i, j))
            if key in self._cache or key in queued:
                continue
            queued.add(key)
            if self.deducer is not None:
                deduced = self.deducer.infer(key[0], key[1])
                if deduced is not None:
                    self._cache[key] = deduced
                    continue
            todo.append(key)
        if not todo:
            return 0
        tasks = {key: self._pair_task(key) for key in todo}
        collected = self.platform.collect(list(tasks.values()), redundancy=self.redundancy)
        evidence = {task.task_id: collected.get(task.task_id, []) for task in tasks.values()}
        winners = self.inference.infer_each(evidence)
        for key, task in tasks.items():
            # Skip/degrade failure policy: an unanswered pair has no winner
            # and stays uncached; a later above() call retries it on its own.
            if task.task_id in winners:
                self._store(key, winners[task.task_id] == "left")
        self.comparisons_asked += len(todo)
        self.answers_bought += sum(map(len, evidence.values()))
        return len(todo)

    def above(self, i: int, j: int) -> bool:
        """True if item i ranks above item j (buying a task if needed)."""
        if i == j:
            raise ConfigurationError("cannot compare an item to itself")
        key = (min(i, j), max(i, j))
        if key not in self._cache:
            self.prefetch([key])
            if key not in self._cache:
                # Skip/degrade failure policy: no evidence for this comparison —
                # deterministically keep the lower index first instead of crashing.
                self._store(key, True)
        verdict_low_high = self._cache[key]  # key[0] above key[1]?
        return verdict_low_high if i == key[0] else not verdict_low_high


def all_pairs_sort(comparator: CrowdComparator) -> SortResult:
    """Every pairwise comparison; rank by Copeland win count."""
    with operator_span(
        comparator.platform, "sort", strategy="all_pairs", items=len(comparator.items)
    ) as span:
        before = comparator.platform.stats.cost_spent
        n = len(comparator.items)
        # All comparisons are known up front — one prefetch makes the whole
        # sort a single scheduler run.
        comparator.prefetch([(i, j) for i in range(n) for j in range(i + 1, n)])
        wins = [0] * n
        for i in range(n):
            for j in range(i + 1, n):
                if comparator.above(i, j):
                    wins[i] += 1
                else:
                    wins[j] += 1
        order = sorted(range(n), key=lambda idx: (-wins[idx], idx))
        span.set_tag("comparisons", comparator.comparisons_asked)
        return SortResult(
            order=order,
            comparisons_asked=comparator.comparisons_asked,
            answers_bought=comparator.answers_bought,
            cost=comparator.platform.stats.cost_spent - before,
        )


def merge_sort_crowd(comparator: CrowdComparator) -> SortResult:
    """Comparison-optimal merge sort over the crowd comparator."""
    with operator_span(
        comparator.platform, "sort", strategy="merge", items=len(comparator.items)
    ) as span:
        before = comparator.platform.stats.cost_spent

        def merge(left: list[int], right: list[int]) -> list[int]:
            merged: list[int] = []
            li = ri = 0
            while li < len(left) and ri < len(right):
                if comparator.above(left[li], right[ri]):
                    merged.append(left[li])
                    li += 1
                else:
                    merged.append(right[ri])
                    ri += 1
            merged.extend(left[li:])
            merged.extend(right[ri:])
            return merged

        def sort(indices: list[int]) -> list[int]:
            if len(indices) <= 1:
                return indices
            mid = len(indices) // 2
            return merge(sort(indices[:mid]), sort(indices[mid:]))

        order = sort(list(range(len(comparator.items))))
        span.set_tag("comparisons", comparator.comparisons_asked)
        return SortResult(
            order=order,
            comparisons_asked=comparator.comparisons_asked,
            answers_bought=comparator.answers_bought,
            cost=comparator.platform.stats.cost_spent - before,
        )


def rating_sort(
    platform: SimulatedPlatform,
    items: Sequence[Any],
    score_fn: Callable[[Any], float],
    redundancy: int = 3,
    scale: tuple[int, int] = (1, 10),
    question: str = "Rate this item.",
) -> SortResult:
    """One RATE task per item; sort by mean rating (descending).

    Ground-truth scores are mapped linearly onto the scale so simulated
    raters produce calibrated noisy ratings. Under the ``skip``/``degrade``
    failure policies an item whose task got no answer has no entry in
    ``ratings`` and ranks after every rated item, in input order.
    """
    if redundancy < 1:
        raise ConfigurationError("redundancy must be >= 1")
    with operator_span(platform, "sort", strategy="rating", items=len(items)):
        before = platform.stats.cost_spent
        scores = [score_fn(item) for item in items]
        low, high = min(scores), max(scores)
        spread = (high - low) or 1.0
        tasks = []
        for item, score in zip(items, scores):
            scaled = scale[0] + (score - low) / spread * (scale[1] - scale[0])
            tasks.append(
                Task(
                    TaskType.RATE,
                    question=f"{question} {item}",
                    payload={"scale": scale},
                    truth=scaled,
                )
            )
        collected = platform.collect(tasks, redundancy=redundancy)
        answers = [collected.get(t.task_id, []) for t in tasks]
        ratings = {
            i: float(np.mean([a.value for a in got])) for i, got in enumerate(answers) if got
        }
        order = sorted(ratings, key=lambda i: (-ratings[i], i))
        order += [i for i in range(len(items)) if i not in ratings]
        return SortResult(
            order=order,
            comparisons_asked=0,
            answers_bought=sum(len(got) for got in answers),
            cost=platform.stats.cost_spent - before,
            ratings=ratings,
        )


def hybrid_sort(
    platform: SimulatedPlatform,
    items: Sequence[Any],
    score_fn: Callable[[Any], float],
    redundancy: int = 3,
    scale: tuple[int, int] = (1, 10),
    close_threshold: float = 1.0,
    inference: TruthInference | None = None,
) -> SortResult:
    """Rating pass, then comparisons for rating-adjacent close pairs.

    After the rating sort, any adjacent pair whose mean ratings differ by
    less than *close_threshold* is re-decided with a pairwise comparison
    (one local bubble pass) — Qurk's cost/quality compromise. Only rated
    neighbours are compared; unrated items keep their place at the end.
    Each comparison is bought when the pass reaches it: after a swap the
    pass compares shifted pairs, so buying the close pairs up front would
    pay for pairs it never reads.
    """
    with operator_span(platform, "sort", strategy="hybrid", items=len(items)) as span:
        before = platform.stats.cost_spent
        base = rating_sort(platform, items, score_fn, redundancy, scale)
        ratings = base.ratings
        comparator = CrowdComparator(
            platform, items, score_fn, redundancy=redundancy, inference=inference
        )
        order = list(base.order)

        def close(i: int, j: int) -> bool:
            return (
                i in ratings and j in ratings
                and abs(ratings[i] - ratings[j]) < close_threshold
            )

        for position in range(len(order) - 1):
            i, j = order[position], order[position + 1]
            if close(i, j):
                if not comparator.above(i, j):
                    order[position], order[position + 1] = j, i
        span.set_tag("comparisons", comparator.comparisons_asked)
        return SortResult(
            order=order,
            comparisons_asked=comparator.comparisons_asked,
            answers_bought=base.answers_bought + comparator.answers_bought,
            cost=platform.stats.cost_spent - before,
            ratings=base.ratings,
        )
