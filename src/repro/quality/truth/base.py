"""Truth-inference interface and shared utilities.

Every algorithm consumes the same evidence — a mapping from task id to the
list of :class:`~repro.platform.task.Answer` objects gathered for it — and
produces an :class:`InferenceResult`: the inferred truth per task, a
confidence per task, and an estimated quality per worker. Ground truth is
never consulted.

The algorithms cover the design space the SIGMOD'17 tutorial lays out:

======================  ==========================  =====================
Algorithm               Worker model                Technique
======================  ==========================  =====================
MajorityVote            none                        direct aggregation
WeightedMajorityVote    worker probability          weighted aggregation
ZenCrowd                worker probability          EM
DawidSkene              confusion matrix            EM
Glad                    ability x difficulty        EM / gradient ascent
BayesianVote            worker probability + prior  iterated posterior
MeanAggregator etc.     numeric noise               robust statistics
======================  ==========================  =====================
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import InferenceError
from repro.obs.runtime import current_metrics, current_tracer
from repro.platform.task import Answer, Task

#: EM execution backends. ``kernel`` is the batched numpy implementation
#: with all likelihood accumulation in log space; ``legacy`` is the original
#: per-answer Python loop, kept as executable documentation of the model
#: math and as the reference side of the differential-equivalence harness
#: (``tests/test_truth_kernels.py``).
EM_BACKENDS = ("kernel", "legacy")


def resolve_backend(backend: str) -> str:
    """Validate an EM backend name (see :data:`EM_BACKENDS`)."""
    if backend not in EM_BACKENDS:
        raise InferenceError(
            f"unknown EM backend {backend!r}; expected one of {EM_BACKENDS}"
        )
    return backend


@dataclass
class InferenceResult:
    """Output of a truth-inference run.

    Attributes:
        truths: task id -> inferred value.
        confidences: task id -> posterior probability (or analogous score in
            [0, 1]) of the inferred value.
        worker_quality: worker id -> estimated accuracy in [0, 1]. For
            confusion-matrix methods this is the mean diagonal.
        iterations: EM / fixed-point iterations executed (0 for one-shot).
        converged: whether iteration stopped by tolerance rather than cap.
        posteriors: task id -> {label: probability} when available.
        task_difficulty: task id -> estimated difficulty in [0, 1]; filled
            by methods that model it (GLAD), empty otherwise.
        spam_distributions: worker id -> {label: probability} spamming
            preferences; filled by methods that model them (MACE), empty
            otherwise.
    """

    truths: dict[str, Any]
    confidences: dict[str, float] = field(default_factory=dict)
    worker_quality: dict[str, float] = field(default_factory=dict)
    iterations: int = 0
    converged: bool = True
    posteriors: dict[str, dict[Any, float]] = field(default_factory=dict)
    task_difficulty: dict[str, float] = field(default_factory=dict)
    spam_distributions: dict[str, dict[Any, float]] = field(default_factory=dict)

    def accuracy_against(self, truth_by_task: Mapping[str, Any]) -> float:
        """Fraction of tasks whose inferred value matches *truth_by_task*.

        Only tasks present in both mappings are scored; empty overlap
        raises, because silently returning 0 or 1 hides harness bugs.
        """
        common = [t for t in self.truths if t in truth_by_task]
        if not common:
            raise InferenceError("no overlapping tasks to score accuracy on")
        hits = sum(1 for t in common if self.truths[t] == truth_by_task[t])
        return hits / len(common)


class TruthInference:
    """Base class for truth-inference algorithms."""

    name = "base"

    def infer(self, answers_by_task: Mapping[str, Sequence[Answer]]) -> InferenceResult:
        """Infer truths from the evidence. Subclasses must override."""
        raise NotImplementedError

    def infer_answered(
        self, answers_by_task: Mapping[str, Sequence[Answer]]
    ) -> InferenceResult:
        """:meth:`infer` over only the tasks that got at least one answer.

        Under the ``skip``/``degrade`` failure policies a collected task can
        come back with no answers (no key, or an empty list). Such a task
        gets no verdict — it is absent from ``truths`` — and a run where
        nothing landed returns no truths instead of raising.
        """
        evidence = {t: a for t, a in answers_by_task.items() if a}
        if not evidence:
            return InferenceResult(truths={})
        return self.infer(evidence)

    def export_state(self) -> dict[str, Any]:
        """JSON-serializable warm-start state for checkpointing.

        Stateless methods (majority voting and friends) return ``{}``. EM
        methods export their estimated worker parameters so a resumed
        session can re-converge from where it left off instead of from the
        cold prior.
        """
        return {}

    def warm_start(self, state: Mapping[str, Any]) -> None:
        """Seed the next :meth:`infer` from previously exported state.

        A no-op by default; EM subclasses override. Warm starting changes
        initialization only — the fixed point is the same, iteration counts
        may differ — so bit-identity harnesses leave it off.
        """

    @staticmethod
    def _validate(answers_by_task: Mapping[str, Sequence[Answer]]) -> None:
        if not answers_by_task:
            raise InferenceError("no answers supplied")
        for task_id, answers in answers_by_task.items():
            if not answers:
                raise InferenceError(f"task {task_id!r} has an empty answer list")
            for a in answers:
                if a.task_id != task_id:
                    raise InferenceError(
                        f"answer for task {a.task_id!r} filed under {task_id!r}"
                    )


def em_span(method: str, answers_by_task: Mapping[str, Sequence[Answer]]):
    """A ``truth.<method>`` span on the active tracer (no-op when off).

    Truth inference has no platform handle, so EM loops reach the
    observability layer through :mod:`repro.obs.runtime`.
    """
    return current_tracer().span(f"truth.{method}", tasks=len(answers_by_task))


def em_iteration(method: str, iteration: int, delta: float) -> None:
    """Record one EM iteration: an annotation plus a convergence-delta sample."""
    tracer = current_tracer()
    if tracer.enabled:
        tracer.annotate("em.iteration", method=method, iteration=iteration, delta=delta)
    metrics = current_metrics()
    # Dotted alias plus the labeled families the exposition/profiler read.
    metrics.observe(f"em.{method}.delta", delta)
    metrics.inc("em.iterations", labels={"method": method})
    metrics.observe("em.delta", delta, labels={"method": method})


def answers_from_platform(
    tasks: Sequence[Task],
    collected: Mapping[str, Sequence[Answer]],
) -> dict[str, list[Answer]]:
    """Normalize a platform ``collect`` result to the inference input shape."""
    return {t.task_id: list(collected.get(t.task_id, [])) for t in tasks}


def label_space(answers_by_task: Mapping[str, Sequence[Answer]]) -> list[Any]:
    """Sorted union of every answered label (stable, hashable order)."""
    labels = {a.value for answers in answers_by_task.values() for a in answers}
    try:
        return sorted(labels)
    except TypeError:
        return sorted(labels, key=repr)


def votes_by_task(
    answers_by_task: Mapping[str, Sequence[Answer]],
) -> dict[str, dict[Any, int]]:
    """Tally raw vote counts per task."""
    tally: dict[str, dict[Any, int]] = {}
    for task_id, answers in answers_by_task.items():
        counts: dict[Any, int] = defaultdict(int)
        for a in answers:
            counts[a.value] += 1
        tally[task_id] = dict(counts)
    return tally


@dataclass(frozen=True)
class SparseObservations:
    """Sparse index encoding of the evidence, shared by all EM kernels.

    One row per answer: ``obs_task[i]``/``obs_worker[i]``/``obs_label[i]``
    are the integer indices of the i-th answer's task, worker, and answered
    label. All vectorized kernels accumulate with ``np.bincount`` over
    (combinations of) these arrays instead of walking the per-task answer
    dicts — Dawid–Skene built exactly this encoding privately; it is hoisted
    here so ZenCrowd, MACE, and GLAD reuse it.

    ``candidate_mask[t, l]`` is True when label ``l`` was actually answered
    for task ``t`` — the per-task candidate set the one-coin methods
    (ZenCrowd, GLAD) restrict their posteriors to.
    """

    task_ids: tuple[str, ...]
    worker_ids: tuple[str, ...]
    labels: tuple[Any, ...]
    obs_task: np.ndarray
    obs_worker: np.ndarray
    obs_label: np.ndarray
    candidate_mask: np.ndarray

    @property
    def n_tasks(self) -> int:
        return len(self.task_ids)

    @property
    def n_workers(self) -> int:
        return len(self.worker_ids)

    @property
    def n_labels(self) -> int:
        return len(self.labels)

    @property
    def n_obs(self) -> int:
        return len(self.obs_task)

    def flat_task_label(self) -> np.ndarray:
        """Per-answer flat index into a ``(n_tasks, n_labels)`` matrix."""
        return self.obs_task * self.n_labels + self.obs_label

    def flat_worker_label(self) -> np.ndarray:
        """Per-answer flat index into a ``(n_workers, n_labels)`` matrix."""
        return self.obs_worker * self.n_labels + self.obs_label

    def answers_per_task(self) -> np.ndarray:
        """Number of answers received by each task, indexed like ``task_ids``."""
        return np.bincount(self.obs_task, minlength=self.n_tasks)

    def answers_per_worker(self) -> np.ndarray:
        """Number of answers given by each worker, indexed like ``worker_ids``."""
        return np.bincount(self.obs_worker, minlength=self.n_workers)

    def spread_counts(self) -> np.ndarray:
        """Per-task ``k = max(2, |candidates|)`` — the error-spread divisor
        the one-coin likelihoods use (at least binary even for degenerate
        single-candidate tasks)."""
        return np.maximum(2, self.candidate_mask.sum(axis=1))


def encode_observations(
    answers_by_task: Mapping[str, Sequence[Answer]],
) -> SparseObservations:
    """Build the shared sparse encoding from validated evidence.

    Tasks keep mapping order, workers and labels are sorted — the same
    orderings every legacy loop uses, so kernel and legacy paths tie-break
    identically.
    """
    labels = label_space(answers_by_task)
    label_index = {label: i for i, label in enumerate(labels)}
    task_ids = list(answers_by_task)
    task_index = {t: i for i, t in enumerate(task_ids)}
    worker_ids = sorted({a.worker_id for ans in answers_by_task.values() for a in ans})
    worker_index = {w: i for i, w in enumerate(worker_ids)}

    n_obs = sum(len(answers) for answers in answers_by_task.values())
    obs_task = np.empty(n_obs, dtype=np.intp)
    obs_worker = np.empty(n_obs, dtype=np.intp)
    obs_label = np.empty(n_obs, dtype=np.intp)
    i = 0
    for task_id, answers in answers_by_task.items():
        t = task_index[task_id]
        for a in answers:
            obs_task[i] = t
            obs_worker[i] = worker_index[a.worker_id]
            obs_label[i] = label_index[a.value]
            i += 1
    candidate_mask = np.zeros((len(task_ids), len(labels)), dtype=bool)
    candidate_mask[obs_task, obs_label] = True
    return SparseObservations(
        task_ids=tuple(task_ids),
        worker_ids=tuple(worker_ids),
        labels=tuple(labels),
        obs_task=obs_task,
        obs_worker=obs_worker,
        obs_label=obs_label,
        candidate_mask=candidate_mask,
    )


def normalize_log_rows(
    log_like: np.ndarray, mask: np.ndarray | None = None
) -> np.ndarray:
    """Row-normalize log-likelihoods into probabilities (logsumexp).

    Subtracting the row peak before exponentiating means the normalization
    never underflows regardless of how negative the log-likelihoods are —
    the whole point of accumulating in log space. Columns excluded by
    *mask* get probability exactly 0. Every row must have at least one
    unmasked column (guaranteed: every task has at least one answer).
    """
    if mask is not None:
        log_like = np.where(mask, log_like, -np.inf)
    peak = log_like.max(axis=1, keepdims=True)
    with np.errstate(invalid="ignore"):
        out = np.exp(log_like - peak)
    out /= out.sum(axis=1, keepdims=True)
    return out


def posteriors_to_maps(
    obs: SparseObservations,
    posteriors: np.ndarray,
    candidates_only: bool = False,
) -> dict[str, dict[Any, float]]:
    """Convert a ``(n_tasks, n_labels)`` posterior matrix to the dict-of-dicts
    output shape; with *candidates_only*, restrict each task's map to its
    answered labels (the legacy one-coin output contract)."""
    maps: dict[str, dict[Any, float]] = {}
    labels = obs.labels
    for t, task_id in enumerate(obs.task_ids):
        row = posteriors[t]
        if candidates_only:
            maps[task_id] = {
                labels[j]: float(row[j]) for j in np.flatnonzero(obs.candidate_mask[t])
            }
        else:
            maps[task_id] = {labels[j]: float(row[j]) for j in range(len(labels))}
    return maps


def select_truths(
    posterior_maps: Mapping[str, Mapping[Any, float]],
) -> tuple[dict[str, Any], dict[str, float]]:
    """Winner per task under the shared ``(probability, repr)`` tie-break."""
    truths: dict[str, Any] = {}
    confidences: dict[str, float] = {}
    for task_id, post in posterior_maps.items():
        winner = max(post, key=lambda label: (post[label], repr(label)))
        truths[task_id] = winner
        confidences[task_id] = post[winner]
    return truths, confidences


def worker_answer_index(
    answers_by_task: Mapping[str, Sequence[Answer]],
) -> dict[str, list[tuple[str, Any]]]:
    """worker id -> [(task id, value)] across all evidence."""
    index: dict[str, list[tuple[str, Any]]] = defaultdict(list)
    for task_id, answers in answers_by_task.items():
        for a in answers:
            index[a.worker_id].append((task_id, a.value))
    return dict(index)
