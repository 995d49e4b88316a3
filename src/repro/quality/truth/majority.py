"""Majority voting and weighted majority voting."""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from typing import Any

from repro.errors import InferenceError
from repro.platform.task import Answer
from repro.quality.truth.base import InferenceResult, TruthInference, votes_by_task


def _break_tie(counts: dict[Any, int]) -> Any:
    """Deterministic tie-break: highest count, then smallest repr."""
    if len(counts) == 1:  # a unanimous task
        return next(iter(counts))
    best = max(counts.values())
    tied = [label for label, c in counts.items() if c == best]
    return min(tied, key=repr)


class MajorityVote(TruthInference):
    """Plain majority voting: the mode of the answers wins.

    Confidence is the winning vote share — the standard MV posterior proxy.
    Worker quality is estimated post hoc as each worker's agreement rate
    with the majority answer (useful as a seed for weighted methods).
    """

    name = "mv"

    def infer(self, answers_by_task: Mapping[str, Sequence[Answer]]) -> InferenceResult:
        self._validate(answers_by_task)
        tally = votes_by_task(answers_by_task)
        truths: dict[str, Any] = {}
        confidences: dict[str, float] = {}
        posteriors: dict[str, dict[Any, float]] = {}
        for task_id, counts in tally.items():
            total = sum(counts.values())
            winner = _break_tie(counts)
            truths[task_id] = winner
            confidences[task_id] = counts[winner] / total
            posteriors[task_id] = {label: c / total for label, c in counts.items()}

        agreement: dict[str, list[int]] = {}
        for task_id, answers in answers_by_task.items():
            for a in answers:
                agreement.setdefault(a.worker_id, []).append(
                    1 if a.value == truths[task_id] else 0
                )
        worker_quality = {w: sum(v) / len(v) for w, v in agreement.items()}
        return InferenceResult(
            truths=truths,
            confidences=confidences,
            worker_quality=worker_quality,
            posteriors=posteriors,
        )

    def infer_each(self, answers_by_task: Mapping[str, Sequence[Answer]]) -> dict[str, Any]:
        # One tally pass: the winners infer() would pick, without the
        # posteriors, confidences and worker quality it builds around them.
        truths: dict[str, Any] = {}
        for task_id, answers in answers_by_task.items():
            if not answers:
                continue
            counts: dict[Any, int] = {}
            for a in answers:
                if a.task_id != task_id:
                    raise InferenceError(
                        f"answer for task {a.task_id!r} filed under {task_id!r}"
                    )
                counts[a.value] = counts.get(a.value, 0) + 1
            truths[task_id] = _break_tie(counts)
        return truths


class WeightedMajorityVote(TruthInference):
    """Majority voting with per-worker weights.

    Weights default to agreement-with-majority estimated by a plain MV
    pass (one round of the classic iterate-between-truth-and-quality
    scheme); callers may instead supply known qualities, e.g. from gold
    tasks (:mod:`repro.quality.workerqc`).

    Weights are clipped to a small positive floor so a single terrible
    worker cannot produce negative/zero mass, and are used as-is (log-odds
    weighting is left to the Bayesian method).
    """

    name = "wmv"

    def __init__(self, worker_weights: Mapping[str, float] | None = None, floor: float = 0.05):
        self.worker_weights = dict(worker_weights) if worker_weights else None
        self.floor = floor

    def infer(self, answers_by_task: Mapping[str, Sequence[Answer]]) -> InferenceResult:
        self._validate(answers_by_task)
        if self.worker_weights is None:
            weights = MajorityVote().infer(answers_by_task).worker_quality
        else:
            weights = self.worker_weights
        truths: dict[str, Any] = {}
        confidences: dict[str, float] = {}
        posteriors: dict[str, dict[Any, float]] = {}
        for task_id, answers in answers_by_task.items():
            scores: dict[Any, float] = {}
            for a in answers:
                w = max(self.floor, weights.get(a.worker_id, 0.5))
                scores[a.value] = scores.get(a.value, 0.0) + w
            total = sum(scores.values())
            best = max(scores.values())
            tied = [label for label, s in scores.items() if s == best]
            winner = min(tied, key=repr)
            truths[task_id] = winner
            confidences[task_id] = best / total if total > 0 else 0.0
            posteriors[task_id] = {label: s / total for label, s in scores.items()}
        return InferenceResult(
            truths=truths,
            confidences=confidences,
            worker_quality={w: float(v) for w, v in weights.items()},
            posteriors=posteriors,
        )
