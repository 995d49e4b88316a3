"""Microtask model.

The SIGMOD'17 tutorial's overview section catalogs the microtask types that
crowdsourced data management builds on. All of them are represented here:

* ``SINGLE_CHOICE`` — pick one label from ``options`` (filtering, labeling).
* ``MULTI_CHOICE``  — pick a subset of ``options``.
* ``FILL``          — free-text fill-in (CNULL resolution, CrowdFill).
* ``COLLECT``       — contribute a new item (open-world CrowdDB collection).
* ``COMPARE``       — which of two items ranks higher (sort / top-k / max)?
* ``RATE``          — numeric rating on a scale (Qurk's rating-based sort).
* ``NUMERIC``       — estimate a number (counting, aggregation).

A :class:`Task` optionally carries ``truth`` — the simulation's ground truth,
used only by simulated workers and by gold-injection quality control. Real
deployments would leave it ``None``; no algorithm in :mod:`repro.quality`
reads it.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Iterator

from repro.errors import TaskStateError


class TaskType(enum.Enum):
    """The microtask kinds crowd operators are built from."""

    SINGLE_CHOICE = "single_choice"
    MULTI_CHOICE = "multi_choice"
    FILL = "fill"
    COLLECT = "collect"
    COMPARE = "compare"
    RATE = "rate"
    NUMERIC = "numeric"


class TaskState(enum.Enum):
    """Task lifecycle states."""

    OPEN = "open"          # published, accepting assignments
    COMPLETED = "completed"  # enough answers gathered / requester closed it
    CANCELLED = "cancelled"


_task_counter = itertools.count(1)


def _next_task_id() -> str:
    return f"t{next(_task_counter)}"


@dataclass
class Task:
    """One unit of crowd work.

    Attributes:
        task_id: Unique id (auto-generated when omitted).
        task_type: The :class:`TaskType`.
        question: Human-readable instruction shown to workers.
        options: Candidate labels for choice tasks; rating scale bounds for
            RATE tasks are carried in ``payload['scale']`` instead.
        payload: Task-specific data (e.g. the two records of a COMPARE task,
            the target (table, rowid, column) of a FILL task).
        truth: Simulation ground truth (never consulted by inference code).
        difficulty: In [0, 1); higher is harder. Consumed by worker models
            with difficulty-sensitive accuracy (GLAD-style).
        reward: Payment per assignment, in abstract currency units.
        is_gold: True for hidden qualification tasks whose truth is known to
            the requester (used by worker quality control).
        signature: The answer-cache content signature, when the code that
            built the task already computed it
            (:func:`repro.platform.cache.task_signature` returns it instead
            of hashing again). Not part of equality, repr or checkpoints.
    """

    task_type: TaskType
    question: str = ""
    options: tuple[Any, ...] = ()
    payload: dict[str, Any] = field(default_factory=dict)
    truth: Any = None
    difficulty: float = 0.0
    reward: float = 0.01
    is_gold: bool = False
    task_id: str = field(default_factory=_next_task_id)
    state: TaskState = TaskState.OPEN
    signature: str | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.task_type in (TaskType.SINGLE_CHOICE, TaskType.MULTI_CHOICE) and not self.options:
            raise TaskStateError(
                f"{self.task_type.value} task requires a non-empty options tuple"
            )
        if not 0.0 <= self.difficulty < 1.0:
            raise TaskStateError(f"difficulty must be in [0, 1), got {self.difficulty}")
        if self.reward < 0:
            raise TaskStateError(f"reward must be non-negative, got {self.reward}")

    def complete(self) -> None:
        """Close the task as completed (must currently be open)."""
        if self.state is not TaskState.OPEN:
            raise TaskStateError(f"task {self.task_id} is {self.state.value}, not open")
        self.state = TaskState.COMPLETED

    def cancel(self) -> None:
        """Close the task as cancelled (must currently be open)."""
        if self.state is not TaskState.OPEN:
            raise TaskStateError(f"task {self.task_id} is {self.state.value}, not open")
        self.state = TaskState.CANCELLED

    @property
    def is_open(self) -> bool:
        return self.state is TaskState.OPEN


@dataclass(frozen=True)
class Answer:
    """One worker's response to one task."""

    task_id: str
    worker_id: str
    value: Any
    submitted_at: float = 0.0
    duration: float = 0.0
    reward_paid: float = 0.0


@dataclass
class HIT:
    """A Human Intelligence Task group: several tasks shown as one unit.

    Batching multiple microtasks into a single HIT is the tutorial's
    canonical *task design* cost optimization — one worker context-switch
    amortized over ``len(tasks)`` answers, usually at a small accuracy cost
    modelled by :mod:`repro.cost.taskdesign`.
    """

    tasks: list[Task]
    hit_id: str = field(default_factory=lambda: f"hit{next(_task_counter)}")
    reward: float | None = None

    def __post_init__(self) -> None:
        if not self.tasks:
            raise TaskStateError("a HIT requires at least one task")
        if self.reward is None:
            self.reward = sum(t.reward for t in self.tasks)

    def __len__(self) -> int:
        return len(self.tasks)

    def __iter__(self) -> Iterator[Task]:
        return iter(self.tasks)


def single_choice(question: str, options: tuple[Any, ...], truth: Any = None, **kwargs: Any) -> Task:
    """Build a SINGLE_CHOICE task."""
    return Task(TaskType.SINGLE_CHOICE, question=question, options=options, truth=truth, **kwargs)


def multi_choice(
    question: str,
    options: tuple[Any, ...],
    truth: "frozenset[Any] | set[Any] | None" = None,
    **kwargs: Any,
) -> Task:
    """Build a MULTI_CHOICE task; truth is the set of applicable options."""
    normalized = frozenset(truth) if truth is not None else None
    if normalized is not None and not normalized <= set(options):
        raise TaskStateError("multi-choice truth must be a subset of the options")
    return Task(
        TaskType.MULTI_CHOICE,
        question=question,
        options=options,
        truth=normalized,
        **kwargs,
    )


def compare(left: Any, right: Any, truth: Any = None, question: str = "", **kwargs: Any) -> Task:
    """Build a COMPARE task over two items; truth is 'left' or 'right'."""
    payload = kwargs.pop("payload", {})
    payload.update({"left": left, "right": right})
    return Task(
        TaskType.COMPARE,
        question=question or "Which item ranks higher?",
        options=("left", "right"),
        payload=payload,
        truth=truth,
        **kwargs,
    )


def fill(question: str, truth: Any = None, **kwargs: Any) -> Task:
    """Build a FILL task (free text)."""
    return Task(TaskType.FILL, question=question, truth=truth, **kwargs)


def numeric(question: str, truth: float | None = None, **kwargs: Any) -> Task:
    """Build a NUMERIC estimation task."""
    return Task(TaskType.NUMERIC, question=question, truth=truth, **kwargs)


def rate(question: str, scale: tuple[int, int] = (1, 5), truth: Any = None, **kwargs: Any) -> Task:
    """Build a RATE task on an inclusive integer scale."""
    payload = kwargs.pop("payload", {})
    payload["scale"] = scale
    return Task(TaskType.RATE, question=question, payload=payload, truth=truth, **kwargs)


def collect(question: str, **kwargs: Any) -> Task:
    """Build a COLLECT (open-world contribution) task."""
    return Task(TaskType.COLLECT, question=question, **kwargs)
