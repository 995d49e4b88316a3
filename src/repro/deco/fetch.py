"""Deco fetch rules: crowd procedures that add raw data.

A fetch rule is ``lhs => rhs``: given values for the attributes on the
left, obtain values for the attributes on the right from the crowd.
Two forms matter in practice (and are what Deco's paper exercises):

* **anchor fetch** (``∅ => anchors``): enumerate new entity instances —
  implemented as COLLECT tasks against collector workers.
* **dependent fetch** (``anchors => group``): fill a dependent group for a
  known anchor — implemented as FILL tasks with per-fetch redundancy 1
  (resolution happens later, on the raw values, per Deco's design).

Both buy through :meth:`SimulatedPlatform.collect`, one scheduler run per
call, so every fetch charges the budget and sees faults, the failure
policy and breakers like any other crowd work. A fetch that gets no answer
(``skip``/``degrade``) adds nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.deco.model import ConceptualRelation
from repro.errors import ConfigurationError
from repro.platform.platform import SimulatedPlatform
from repro.platform.task import Task, TaskType


@dataclass
class AnchorFetchRule:
    """``∅ => anchors``: ask the crowd for a (possibly new) entity.

    Args:
        question: The enumeration prompt.
        parse: Maps a raw worker contribution to anchor values
            ({anchor: value}) or None to discard. Defaults to binding a
            single-anchor relation's anchor to the contribution.
    """

    question: str
    parse: Callable[[Any], dict[str, Any] | None] | None = None

    def fetch(
        self,
        relation: ConceptualRelation,
        platform: SimulatedPlatform,
        attempts: int = 1,
    ) -> int:
        """Issue *attempts* COLLECT tasks; returns how many NEW anchors landed."""
        if attempts < 1:
            raise ConfigurationError("attempts must be >= 1")
        if self.parse is None and len(relation.anchors) != 1:
            raise ConfigurationError(
                "multi-anchor relations need an explicit parse function"
            )
        tasks = [Task(TaskType.COLLECT, question=self.question) for _ in range(attempts)]
        collected = platform.collect(tasks, redundancy=1)
        added = 0
        for task in tasks:
            delivered = collected.get(task.task_id)
            value = delivered[0].value if delivered else None
            if value is None:
                continue
            if self.parse is not None:
                anchor_values = self.parse(value)
                if anchor_values is None:
                    continue
            else:
                anchor_values = {relation.anchors[0]: value}
            if relation.add_anchor(**anchor_values):
                added += 1
        return added


@dataclass
class DependentFetchRule:
    """``anchors => group``: ask the crowd for one raw value of a group.

    Args:
        group: The dependent group this rule feeds.
        question_fn: Renders the task prompt from the anchor values.
        truth_fn: Simulation ground truth: (anchor values, column) -> value.
    """

    group: str
    question_fn: Callable[[dict[str, Any]], str] | None = None
    truth_fn: Callable[[dict[str, Any], str], Any] | None = None

    def fetch(
        self,
        relation: ConceptualRelation,
        platform: SimulatedPlatform,
        anchor_values: dict[str, Any],
        times: int = 1,
    ) -> int:
        """Issue *times* FILL fetches for this anchor+group; returns count.

        All fetches go out in one ``collect`` with the tasks kept open, so
        the answer cache never replays one fetch's raw value as another's.
        A fetch adds its raw value only when every column got an answer.
        """
        if times < 1:
            raise ConfigurationError("times must be >= 1")
        group = relation.group(self.group)
        fetches = [
            [self._task(anchor_values, column) for column in group.columns]
            for _ in range(times)
        ]
        collected = platform.collect(
            [task for tasks in fetches for task in tasks], redundancy=1, complete=False
        )
        fetched = 0
        for tasks in fetches:
            answers = [collected.get(task.task_id, []) for task in tasks]
            for task in tasks:
                task.complete()
            if all(answers):
                raw = {c: got[0].value for c, got in zip(group.columns, answers)}
                relation.add_raw_value(anchor_values, self.group, **raw)
                fetched += 1
        return fetched

    def _task(self, anchor_values: dict[str, Any], column: str) -> Task:
        question = (
            self.question_fn(anchor_values)
            if self.question_fn is not None
            else f"Provide {column!r} for {anchor_values!r}."
        )
        truth = self.truth_fn(anchor_values, column) if self.truth_fn is not None else None
        # Numeric facts go out as NUMERIC estimation tasks (workers
        # produce noisy numbers); everything else as free-text FILL.
        numeric = isinstance(truth, (int, float)) and not isinstance(truth, bool)
        return Task(TaskType.NUMERIC if numeric else TaskType.FILL, question=question, truth=truth)


@dataclass
class FetchRuleSet:
    """All fetch rules of one conceptual relation, indexed for the planner."""

    anchor_rule: AnchorFetchRule | None = None
    dependent_rules: dict[str, DependentFetchRule] = field(default_factory=dict)

    def dependent_rule(self, group: str) -> DependentFetchRule:
        """The fetch rule feeding dependent group *group* (raises if absent)."""
        try:
            return self.dependent_rules[group]
        except KeyError:
            raise ConfigurationError(
                f"no fetch rule for dependent group {group!r}"
            ) from None

    def covers(self, relation: ConceptualRelation) -> bool:
        """True if every dependent group has a fetch rule."""
        return all(g.name in self.dependent_rules for g in relation.groups)
