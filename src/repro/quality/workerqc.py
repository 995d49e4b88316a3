"""Worker quality control: qualification tests, gold injection, elimination.

The worker-based side of the tutorial's quality-control taxonomy:

* :func:`qualification_test` — a pre-screen on tasks with known answers;
  workers below the pass bar never enter the real job.
* :class:`GoldInjector` — mixes hidden gold tasks into a task list so worker
  accuracy can be measured *during* the job without workers knowing which
  tasks are tests.
* :func:`eliminate_spammers` — drops workers whose measured gold accuracy
  is statistically indistinguishable from (or worse than) random guessing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.platform.platform import SimulatedPlatform
from repro.platform.task import Answer, Task
from repro.workers.pool import WorkerPool


def qualification_test(
    platform: SimulatedPlatform,
    gold_tasks: Sequence[Task],
    pass_accuracy: float = 0.7,
    deactivate_failures: bool = True,
) -> dict[str, float]:
    """Run every active worker through *gold_tasks*; return measured accuracy.

    Workers scoring below *pass_accuracy* are deactivated in the pool when
    *deactivate_failures* is set. Gold tasks must carry ``truth``.
    """
    if not gold_tasks:
        raise ConfigurationError("qualification test requires at least one gold task")
    for task in gold_tasks:
        if task.truth is None:
            raise ConfigurationError(f"gold task {task.task_id} has no ground truth")
    scores: dict[str, float] = {}
    for worker in list(platform.pool.active_workers):
        hits = 0
        for task in gold_tasks:
            value = worker.model.answer(task, platform.rng)
            if value == task.truth:
                hits += 1
        accuracy = hits / len(gold_tasks)
        scores[worker.worker_id] = accuracy
        if deactivate_failures and accuracy < pass_accuracy:
            platform.pool.deactivate(worker.worker_id)
    return scores


@dataclass
class GoldInjector:
    """Interleave hidden gold tasks into a job and score workers from them.

    Args:
        gold_tasks: Tasks with known truth; they are marked ``is_gold``.
        injection_rate: Fraction of assignments that should be gold
            (e.g. 0.1 = one gold per ten real tasks).
        seed: RNG seed for the interleaving.
    """

    gold_tasks: Sequence[Task]
    injection_rate: float = 0.1
    seed: int | None = None
    _scores: dict[str, list[int]] = field(default_factory=dict, init=False)

    def __post_init__(self) -> None:
        if not self.gold_tasks:
            raise ConfigurationError("GoldInjector requires gold tasks")
        if not 0.0 < self.injection_rate < 1.0:
            raise ConfigurationError("injection_rate must be in (0, 1)")
        for task in self.gold_tasks:
            if task.truth is None:
                raise ConfigurationError(f"gold task {task.task_id} has no truth")
            task.is_gold = True

    def inject(self, tasks: Sequence[Task]) -> list[Task]:
        """Return a shuffled task list with gold tasks mixed in proportionally."""
        rng = np.random.default_rng(self.seed)
        n_gold = max(1, int(round(len(tasks) * self.injection_rate)))
        chosen = [
            self.gold_tasks[int(i)]
            for i in rng.integers(len(self.gold_tasks), size=n_gold)
        ]
        mixed = list(tasks) + chosen
        rng.shuffle(mixed)
        return mixed

    def score(self, answers: Sequence[Answer], tasks_by_id: Mapping[str, Task]) -> None:
        """Record gold hits/misses from a batch of answers."""
        for answer in answers:
            task = tasks_by_id.get(answer.task_id)
            if task is None or not task.is_gold:
                continue
            self._scores.setdefault(answer.worker_id, []).append(
                1 if answer.value == task.truth else 0
            )

    def worker_accuracy(self) -> dict[str, float]:
        """Measured gold accuracy per worker (workers with >= 1 gold answer)."""
        return {w: sum(v) / len(v) for w, v in self._scores.items() if v}

    def gold_counts(self) -> dict[str, int]:
        """Number of gold answers scored per worker."""
        return {w: len(v) for w, v in self._scores.items()}


def eliminate_spammers(
    pool: WorkerPool,
    gold_accuracy: Mapping[str, float],
    gold_counts: Mapping[str, int],
    chance_level: float = 0.5,
    significance: float = 2.0,
    min_observations: int = 3,
) -> list[str]:
    """Deactivate workers whose gold accuracy is not above chance.

    A worker is eliminated when their measured accuracy minus *significance*
    standard errors is still at or below *chance_level* AND their point
    estimate is below chance + one standard error — i.e. the evidence is
    consistent with guessing. Returns the eliminated worker ids.
    """
    eliminated = []
    for worker_id, accuracy in gold_accuracy.items():
        n = gold_counts.get(worker_id, 0)
        if n < min_observations:
            continue
        stderr = math.sqrt(max(accuracy * (1 - accuracy), 0.01) / n)
        if accuracy <= chance_level + stderr and accuracy - significance * stderr <= chance_level:
            if worker_id in pool:
                pool.deactivate(worker_id)
                eliminated.append(worker_id)
    return eliminated


def pool_accuracy_report(
    pool: WorkerPool,
    gold_accuracy: Mapping[str, float],
) -> dict[str, dict[str, float | bool]]:
    """Join measured accuracies with activity state, for requester dashboards."""
    report: dict[str, dict[str, float | bool]] = {}
    for worker in pool:
        entry: dict[str, float | bool] = {"active": worker.active}
        if worker.worker_id in gold_accuracy:
            entry["gold_accuracy"] = gold_accuracy[worker.worker_id]
        report[worker.worker_id] = entry
    return report
