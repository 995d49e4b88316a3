"""Crowd-powered selection/filtering (the CrowdScreen family).

Decide, for every item, whether it satisfies a predicate only humans can
evaluate ("does this photo show a mountain?"). Strategies differ in how
many answers they buy per item:

* :class:`FixedKFilter` — always k answers, majority vote. Simple,
  predictable cost, wastes money on easy items.
* :class:`AdaptiveFilter` — sequential strategy: keep asking while the
  evidence is indecisive (|yes - no| < margin), stop early otherwise, with
  a hard per-item cap. This is the ladder/grid strategy shape from
  CrowdScreen, where most items terminate after 2 agreeing answers.

Both emit SINGLE_CHOICE yes/no tasks and share the same result type, so
the F6 benchmark can sweep them on identical workloads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.errors import ConfigurationError
from repro.obs.instrument import operator_span
from repro.platform.platform import SimulatedPlatform
from repro.platform.task import Answer, Task, TaskType

YES = "yes"
NO = "no"


@dataclass
class FilterResult:
    """Outcome of a crowd filter over a set of items."""

    decisions: dict[int, bool]            # item index -> predicate verdict
    questions_asked: int
    cost: float
    answers_by_item: dict[int, list[Answer]] = field(default_factory=dict)

    @property
    def kept(self) -> list[int]:
        return sorted(i for i, keep in self.decisions.items() if keep)

    def accuracy_against(self, truth: Sequence[bool]) -> float:
        """Fraction of items whose verdict matches ground truth."""
        hits = sum(
            1 for i, verdict in self.decisions.items() if verdict == bool(truth[i])
        )
        return hits / len(self.decisions) if self.decisions else 0.0


def _make_task(
    item: Any,
    index: int,
    question: str,
    truth: bool | None,
    difficulty: float,
) -> Task:
    return Task(
        TaskType.SINGLE_CHOICE,
        question=f"{question} — item: {item}",
        options=(YES, NO),
        payload={"item_index": index},
        truth=(YES if truth else NO) if truth is not None else None,
        difficulty=difficulty,
    )


class CrowdFilter:
    """Shared construction for crowd filters.

    Args:
        platform: Marketplace to buy answers from.
        question: The human-evaluable predicate text.
        truth_fn: Maps an item to its ground-truth verdict (simulation
            only; drives worker models, never the decision logic).
        difficulty_fn: Optional per-item difficulty in [0, 1).
    """

    def __init__(
        self,
        platform: SimulatedPlatform,
        question: str,
        truth_fn: Callable[[Any], bool] | None = None,
        difficulty_fn: Callable[[Any], float] | None = None,
    ):
        self.platform = platform
        self.question = question
        self.truth_fn = truth_fn
        self.difficulty_fn = difficulty_fn

    def _task_for(self, item: Any, index: int) -> Task:
        truth = self.truth_fn(item) if self.truth_fn is not None else None
        difficulty = self.difficulty_fn(item) if self.difficulty_fn is not None else 0.0
        return _make_task(item, index, self.question, truth, difficulty)

    def _stamp(self, span: Any, items: Sequence[Any], result: FilterResult) -> None:
        """Tag the operator span with outcome stats (accuracy when truth is known)."""
        if not self.platform.tracer.enabled:
            return
        span.set_tag("questions", result.questions_asked)
        span.set_tag("kept", len(result.kept))
        if self.truth_fn is not None:
            truth = [bool(self.truth_fn(item)) for item in items]
            span.set_tag("accuracy", result.accuracy_against(truth))


class FixedKFilter(CrowdFilter):
    """k answers per item, majority decides (ties -> not kept)."""

    def __init__(self, *args: Any, redundancy: int = 3, **kwargs: Any):
        super().__init__(*args, **kwargs)
        if redundancy < 1:
            raise ConfigurationError("redundancy must be >= 1")
        self.redundancy = redundancy

    def run(self, items: Sequence[Any]) -> FilterResult:
        """Filter *items* with k answers each; majority decides."""
        with operator_span(
            self.platform,
            "filter",
            strategy="fixed_k",
            items=len(items),
            redundancy=self.redundancy,
        ) as span:
            before = self.platform.stats.cost_spent
            tasks = [self._task_for(item, i) for i, item in enumerate(items)]
            collected = self.platform.collect(tasks, redundancy=self.redundancy)
            decisions: dict[int, bool] = {}
            answers_by_item: dict[int, list[Answer]] = {}
            questions = 0
            for i, task in enumerate(tasks):
                # Under skip/degrade failure policies a task may come back
                # with no answers; treat it as "not kept" instead of crashing.
                answers = collected.get(task.task_id, [])
                answers_by_item[i] = answers
                questions += len(answers)
                yes_votes = sum(1 for a in answers if a.value == YES)
                decisions[i] = yes_votes * 2 > len(answers)
            result = FilterResult(
                decisions=decisions,
                questions_asked=questions,
                cost=self.platform.stats.cost_spent - before,
                answers_by_item=answers_by_item,
            )
            self._stamp(span, items, result)
            return result


class AdaptiveFilter(CrowdFilter):
    """Sequential filter: stop once |yes - no| reaches *margin* (or at cap).

    With margin=2 and honest workers this terminates most items after two
    agreeing answers — the cost profile that makes adaptive strategies
    dominate fixed-k at equal accuracy.
    """

    def __init__(
        self,
        *args: Any,
        margin: int = 2,
        max_answers: int = 7,
        **kwargs: Any,
    ):
        super().__init__(*args, **kwargs)
        if margin < 1:
            raise ConfigurationError("margin must be >= 1")
        if max_answers < margin:
            raise ConfigurationError("max_answers must be >= margin")
        self.margin = margin
        self.max_answers = max_answers

    def run(self, items: Sequence[Any]) -> FilterResult:
        """Filter *items* with sequential early-stopping vote collection.

        With a parallel batch runtime attached to the platform, undecided
        items are advanced breadth-first: each wave buys one more answer for
        *every* open item as a single batch, so a wave costs one round of
        simulated latency instead of one per answer.
        """
        with operator_span(
            self.platform,
            "filter",
            strategy="adaptive",
            items=len(items),
            margin=self.margin,
            max_answers=self.max_answers,
        ) as span:
            if self.platform.parallel_batching:
                result = self._run_waves(items)
            else:
                result = self._run_sequential(items)
            self._stamp(span, items, result)
            return result

    def _run_sequential(self, items: Sequence[Any]) -> FilterResult:
        """One item at a time, buying answers until the margin is reached."""
        before = self.platform.stats.cost_spent
        decisions: dict[int, bool] = {}
        answers_by_item: dict[int, list[Answer]] = {}
        questions = 0
        for i, item in enumerate(items):
            task = self._task_for(item, i)
            self.platform.publish([task])
            yes_votes = 0
            no_votes = 0
            answers: list[Answer] = []
            while abs(yes_votes - no_votes) < self.margin and len(answers) < self.max_answers:
                answer = self.platform.ask(task)
                answers.append(answer)
                questions += 1
                if answer.value == YES:
                    yes_votes += 1
                else:
                    no_votes += 1
            decisions[i] = yes_votes > no_votes
            answers_by_item[i] = answers
            task.complete()
        return FilterResult(
            decisions=decisions,
            questions_asked=questions,
            cost=self.platform.stats.cost_spent - before,
            answers_by_item=answers_by_item,
        )

    def _run_waves(self, items: Sequence[Any]) -> FilterResult:
        """Breadth-first adaptive filtering over the batch runtime."""
        before = self.platform.stats.cost_spent
        tasks = [self._task_for(item, i) for i, item in enumerate(items)]
        answers_by_item: dict[int, list[Answer]] = {i: [] for i in range(len(tasks))}
        votes = {i: [0, 0] for i in range(len(tasks))}  # [yes, no]
        open_items = list(range(len(tasks)))
        questions = 0
        while open_items:
            wave = [tasks[i] for i in open_items]
            collected = self.platform.collect(wave, redundancy=1, complete=False)
            still_open: list[int] = []
            for i in open_items:
                delivered = collected.get(tasks[i].task_id, [])
                if not delivered:
                    # Skip/degrade failure policy: no answer this wave means
                    # the task is unservable — close the item on current votes.
                    continue
                answer = delivered[0]
                answers_by_item[i].append(answer)
                questions += 1
                votes[i][0 if answer.value == YES else 1] += 1
                yes_votes, no_votes = votes[i]
                undecided = abs(yes_votes - no_votes) < self.margin
                if undecided and len(answers_by_item[i]) < self.max_answers:
                    still_open.append(i)
            open_items = still_open
        for task in tasks:
            task.complete()
        decisions = {i: votes[i][0] > votes[i][1] for i in range(len(tasks))}
        return FilterResult(
            decisions=decisions,
            questions_asked=questions,
            cost=self.platform.stats.cost_spent - before,
            answers_by_item=answers_by_item,
        )
