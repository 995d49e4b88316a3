"""The record contract of ``Answer``, ``CachedAnswer`` and ``Task``.

``Answer`` and ``CachedAnswer`` are named tuples and ``Task`` is a slotted
dataclass. These tests pin what callers rely on: field names and order,
defaults, positional construction, repr text, immutability, hash and
equality, and the checkpoint and cache-spill round trips.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.platform.cache import AnswerCache, CachedAnswer, task_signature
from repro.platform.task import Answer, Task, TaskState, TaskType, single_choice
from repro.recovery.checkpoint import (
    _restore_answer,
    _restore_task,
    _snapshot_answer,
    _snapshot_task,
)

ANSWER_FIELDS = ("task_id", "worker_id", "value", "submitted_at", "duration", "reward_paid")
TASK_FIELDS = (
    "task_type", "question", "options", "payload", "truth", "difficulty",
    "reward", "is_gold", "task_id", "state", "signature",
)


class TestAnswer:
    def test_fields_defaults_and_positional_order(self):
        assert Answer._fields == ANSWER_FIELDS
        answer = Answer("t1", "w1", "yes")
        assert (answer.submitted_at, answer.duration, answer.reward_paid) == (0.0, 0.0, 0.0)
        full = Answer("t1", "w1", "yes", 4.5, 3.0, 0.02)
        assert full == Answer(
            task_id="t1", worker_id="w1", value="yes",
            submitted_at=4.5, duration=3.0, reward_paid=0.02,
        )
        assert [getattr(full, name) for name in ANSWER_FIELDS] == list(full)

    def test_repr(self):
        assert repr(Answer("t1", "w1", "yes", 1.5, 1.5, 0.01)) == (
            "Answer(task_id='t1', worker_id='w1', value='yes', "
            "submitted_at=1.5, duration=1.5, reward_paid=0.01)"
        )

    def test_immutable(self):
        answer = Answer("t1", "w1", "yes")
        with pytest.raises(AttributeError):
            answer.value = "no"
        with pytest.raises(AttributeError):
            answer.extra = 1

    def test_hash_and_eq_between_answers(self):
        a = Answer("t1", "w1", frozenset({"x"}), 1.0, 1.0, 0.01)
        b = Answer("t1", "w1", frozenset({"x"}), 1.0, 1.0, 0.01)
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        for i, name in enumerate(ANSWER_FIELDS):
            changed = a._replace(**{name: "other" if i < 3 else 9.0})
            assert changed != a, name
        with pytest.raises(TypeError):  # an unhashable value makes an unhashable answer
            hash(Answer("t1", "w1", ["list"]))

    def test_checkpoint_round_trip(self):
        for value in ("yes", 3, 2.5, None, ("a", 1), frozenset({"x", "y"}), {"k": [1, 2]}):
            answer = Answer("t7", "w3", value, 12.25, 11.0, 0.03)
            restored = _restore_answer(json.loads(json.dumps(_snapshot_answer(answer))))
            assert type(restored) is Answer
            assert restored == answer


class TestCachedAnswer:
    def test_fields_repr_and_immutability(self):
        assert CachedAnswer._fields == ("worker_id", "value")
        stored = CachedAnswer("w0", "yes")
        assert stored == CachedAnswer(worker_id="w0", value="yes")
        assert repr(stored) == "CachedAnswer(worker_id='w0', value='yes')"
        with pytest.raises(AttributeError):
            stored.value = "no"
        assert hash(stored) == hash(CachedAnswer("w0", "yes"))
        assert stored != Answer("t1", "w0", "yes")

    def test_replay_is_free_and_instant(self):
        replayed = CachedAnswer("w0", "yes").replay("t9")
        assert type(replayed) is Answer
        assert replayed == Answer("t9", "w0", "yes", 0.0, 0.0, 0.0)

    def test_cache_spill_round_trip(self, tmp_path):
        cache = AnswerCache()
        task = single_choice("is it red?", ("yes", "no"))
        cache.store(
            task,
            [Answer(task.task_id, "w0", "yes", 1.0, 1.0, 0.01),
             Answer(task.task_id, "w1", ("a", 1), 2.0, 2.0, 0.01)],
        )
        path = tmp_path / "spill.jsonl"
        cache.save(path)
        loaded = AnswerCache()
        assert loaded.load(path) == 1
        answers = loaded.entry(task_signature(task)).answers
        assert answers == [CachedAnswer("w0", "yes"), CachedAnswer("w1", ("a", 1))]
        assert all(type(a) is CachedAnswer for a in answers)


class TestTask:
    def test_fields_defaults_and_positional_order(self):
        assert tuple(f.name for f in dataclasses.fields(Task)) == TASK_FIELDS
        task = Task(TaskType.FILL)
        assert (task.question, task.options, task.payload, task.truth) == ("", (), {}, None)
        assert (task.difficulty, task.reward, task.is_gold) == (0.0, 0.01, False)
        assert task.state is TaskState.OPEN and task.signature is None
        assert task.task_id.startswith("t")
        positional = Task(
            TaskType.SINGLE_CHOICE, "q?", ("a", "b"), {"k": 1}, "a", 0.5, 0.02, True, "t-x",
            TaskState.COMPLETED, "sig",
        )
        assert [getattr(positional, name) for name in TASK_FIELDS] == [
            TaskType.SINGLE_CHOICE, "q?", ("a", "b"), {"k": 1}, "a", 0.5, 0.02, True, "t-x",
            TaskState.COMPLETED, "sig",
        ]

    def test_repr_and_eq_leave_out_the_signature(self):
        a = Task(TaskType.FILL, "q", task_id="t-same")
        b = Task(TaskType.FILL, "q", task_id="t-same", signature="cached")
        assert a == b
        assert repr(a) == repr(b) == (
            "Task(task_type=<TaskType.FILL: 'fill'>, question='q', options=(), payload={}, "
            "truth=None, difficulty=0.0, reward=0.01, is_gold=False, task_id='t-same', "
            "state=<TaskState.OPEN: 'open'>)"
        )
        with pytest.raises(TypeError):  # mutable, so unhashable
            hash(a)

    def test_refuses_an_undeclared_attribute(self):
        task = Task(TaskType.FILL, "q")
        task.is_gold = True  # declared fields stay writable
        task.state = TaskState.CANCELLED
        with pytest.raises(AttributeError):
            task.extra = 1
        assert not hasattr(task, "__dict__")

    def test_checkpoint_round_trip(self):
        task = Task(
            TaskType.SINGLE_CHOICE, "which?", ("a", ("b", 2)), {"row": 3}, ("b", 2), 0.25,
            0.05, True,
        )
        task.complete()
        restored = _restore_task(json.loads(json.dumps(_snapshot_task(task))))
        assert restored == task
        assert restored.state is TaskState.COMPLETED
