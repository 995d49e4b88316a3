"""Dawid–Skene truth inference: EM over per-worker confusion matrices.

The classic (1979) model the tutorial presents as the canonical EM-based
truth-inference method:

* Latent truth ``z_t`` per task over label set L.
* Each worker w has a confusion matrix pi_w[i][j] = P(answer j | truth i).
* E-step: posterior over z_t given current matrices and class priors.
* M-step: re-estimate matrices and priors from the posteriors.

This implementation works on an arbitrary hashable label space (the union
of all observed answers), applies Laplace smoothing to keep matrices
non-degenerate, and initializes from majority voting (the standard warm
start, which also pins the label-permutation ambiguity to the sensible
solution).

The default ``kernel`` backend accumulates both EM steps with
``np.bincount`` over precomputed flat indices
(``worker*K*K + true*K + answered``), avoiding the three dense
``(n_answers, K)`` ``repeat`` temporaries per iteration that the
``legacy`` backend (kept for the differential harness) materializes. Its
E-step takes the log of the ``(workers, K, K)`` confusion table once and
gathers one row per answer (``worker*K + answered``), and reduces over the
K labels column by column; see :func:`_row_max` and :func:`_row_sum` for
why that is bit-identical to numpy's row reductions.
"""

from __future__ import annotations

import math
from collections.abc import Mapping, Sequence
from typing import Any

import numpy as np

from repro.errors import InferenceError
from repro.platform.task import Answer
from repro.quality.truth.base import (
    InferenceResult,
    TruthInference,
    encode_observations,
    resolve_backend,
)


#: numpy's pairwise summation adds fewer than this many elements in
#: order, so below it a row sum equals a left-to-right sum of its columns.
_PAIRWISE_BLOCK = 8


def _row_max(x: np.ndarray) -> np.ndarray:
    """``x.max(axis=1)`` as K-1 column maxima (exact in any order), which
    is far cheaper than numpy's row reduction on a narrow ``(n, K)`` array."""
    peak = x[:, 0].copy()
    for j in range(1, x.shape[1]):
        np.maximum(peak, x[:, j], out=peak)
    return peak


def _row_sum(x: np.ndarray) -> np.ndarray:
    """``x.sum(axis=1)``, bit for bit. Below :data:`_PAIRWISE_BLOCK`
    labels numpy adds a row's elements left to right, as the column-wise
    sum here does; at or above it numpy sums pairwise, so its own
    reduction is used."""
    if x.shape[1] >= _PAIRWISE_BLOCK:
        return x.sum(axis=1)
    total = x[:, 0].copy()
    for j in range(1, x.shape[1]):
        total += x[:, j]
    return total


class DawidSkene(TruthInference):
    """EM estimation of worker confusion matrices and task truths.

    Args:
        max_iterations: EM iteration cap.
        tolerance: Convergence threshold on the max change of any task
            posterior between iterations.
        smoothing: Laplace pseudo-count added to confusion-matrix cells; a
            finite number > 0. At 0 a worker with no posterior mass on
            some true label gets a 0/0 confusion row, and a negative or NaN
            pseudo-count makes every posterior NaN.
        backend: ``"kernel"`` (flat-index bincount accumulation) or
            ``"legacy"`` (dense repeat temporaries + ``np.add.at``).
    """

    name = "ds"

    def __init__(
        self,
        max_iterations: int = 100,
        tolerance: float = 1e-5,
        smoothing: float = 0.01,
        backend: str = "kernel",
    ):
        if max_iterations < 1:
            raise InferenceError("max_iterations must be >= 1")
        if not (math.isfinite(smoothing) and smoothing > 0.0):
            raise InferenceError(f"smoothing must be a finite number > 0, got {smoothing!r}")
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.smoothing = smoothing
        self.backend = resolve_backend(backend)
        self._warm_quality: dict[str, float] = {}
        self._last_quality: dict[str, float] = {}

    def export_state(self) -> dict[str, Any]:
        """Mean-diagonal worker qualities from the most recent :meth:`infer`."""
        return {"worker_quality": dict(self._last_quality)}

    def warm_start(self, state: Mapping[str, Any]) -> None:
        """Bias the initial posteriors by previously estimated worker quality.

        Full confusion matrices are label-space specific, so only the scalar
        qualities carry over: initialization becomes a quality-weighted vote
        instead of plain majority voting.
        """
        self._warm_quality = dict(state.get("worker_quality", {}))

    def infer(self, answers_by_task: Mapping[str, Sequence[Answer]]) -> InferenceResult:
        self._validate(answers_by_task)
        obs = encode_observations(answers_by_task)
        n_tasks, n_labels, n_workers = obs.n_tasks, obs.n_labels, obs.n_workers
        obs_task, obs_worker, obs_label = obs.obs_task, obs.obs_worker, obs.obs_label

        # Initialize posteriors from majority voting; with warm-start state,
        # votes are weighted by the previously estimated worker quality.
        vote_weight = np.array(
            [self._warm_quality.get(w, 1.0) for w in obs.worker_ids]
        )
        rows = np.bincount(
            obs.flat_task_label(),
            weights=vote_weight[obs_worker],
            minlength=n_tasks * n_labels,
        ).reshape(n_tasks, n_labels)
        totals = rows.sum(axis=1, keepdims=True)
        posteriors = np.where(totals > 0, rows / np.where(totals > 0, totals, 1.0),
                              1.0 / n_labels)

        kernel = self.backend == "kernel"
        if kernel:
            # Flat index per (answer, hypothesized truth) into the
            # (n_workers, K, K) confusion tensor: worker*K*K + true*K + answered.
            conf_flat = (
                (obs_worker * n_labels * n_labels + obs_label)[:, None]
                + (np.arange(n_labels) * n_labels)[None, :]
            ).ravel()
            # Flat index per (answer, hypothesized truth) into (n_tasks, K).
            ll_flat = (obs_task[:, None] * n_labels + np.arange(n_labels)[None, :]).ravel()
            # Row per answer into the log table transposed to
            # (n_workers * K answered, K true): worker*K + answered.
            answer_rows = obs.flat_worker_label()

        priors = np.full(n_labels, 1.0 / n_labels)
        confusion = np.zeros((n_workers, n_labels, n_labels))
        iterations = 0
        converged = False

        span = self.em_span(answers_by_task)
        for iterations in range(1, self.max_iterations + 1):
            # ----- M-step: confusion matrices and class priors. -----
            # Accumulate posterior mass: confusion[w, true, answered] += p(task=true).
            if kernel:
                confusion = self.smoothing + np.bincount(
                    conf_flat,
                    weights=np.take(posteriors, obs_task, axis=0).ravel(),
                    minlength=n_workers * n_labels * n_labels,
                ).reshape(n_workers, n_labels, n_labels)
            else:
                confusion.fill(self.smoothing)
                np.add.at(
                    confusion,
                    (obs_worker[:, None].repeat(n_labels, axis=1),
                     np.arange(n_labels)[None, :].repeat(len(obs_task), axis=0),
                     obs_label[:, None].repeat(n_labels, axis=1)),
                    posteriors[obs_task],
                )
            confusion /= confusion.sum(axis=2, keepdims=True)
            priors = posteriors.mean(axis=0)
            priors = np.clip(priors, 1e-9, None)
            priors /= priors.sum()

            # ----- E-step: task posteriors from log-likelihoods. -----
            if kernel:
                log_rows = np.log(confusion).transpose(0, 2, 1).reshape(-1, n_labels)
                contrib = np.take(log_rows, answer_rows, axis=0)
                log_like = np.log(priors)[None, :] + np.bincount(
                    ll_flat,
                    weights=contrib.ravel(),
                    minlength=n_tasks * n_labels,
                ).reshape(n_tasks, n_labels)
                log_like -= _row_max(log_like)[:, None]
                new_posteriors = np.exp(log_like)
                new_posteriors /= _row_sum(new_posteriors)[:, None]
            else:
                contrib = np.log(confusion[obs_worker, :, obs_label])
                log_like = np.tile(np.log(priors), (n_tasks, 1))
                np.add.at(log_like, obs_task, contrib)
                log_like -= log_like.max(axis=1, keepdims=True)
                new_posteriors = np.exp(log_like)
                new_posteriors /= new_posteriors.sum(axis=1, keepdims=True)

            delta = float(np.abs(new_posteriors - posteriors).max())
            posteriors = new_posteriors
            self.em_iteration(iterations, delta)
            if delta < self.tolerance:
                converged = True
                break
        span.set_tag("iterations", iterations)
        span.set_tag("converged", converged)
        span.__exit__(None, None, None)

        truths: dict[str, Any] = {}
        confidences: dict[str, float] = {}
        posterior_maps: dict[str, dict[Any, float]] = {}
        labels = obs.labels
        for task_id, best, row in zip(
            obs.task_ids, posteriors.argmax(axis=1).tolist(), posteriors.tolist()
        ):
            truths[task_id] = labels[best]
            confidences[task_id] = row[best]
            posterior_maps[task_id] = dict(zip(labels, row))
        worker_quality = {
            w: float(np.trace(confusion[i]) / n_labels)
            for i, w in enumerate(obs.worker_ids)
        }
        self._last_quality = dict(worker_quality)
        return InferenceResult(
            truths=truths,
            confidences=confidences,
            worker_quality=worker_quality,
            iterations=iterations,
            converged=converged,
            posteriors=posterior_maps,
        )
