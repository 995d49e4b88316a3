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
``legacy`` backend (kept for the differential harness) materializes.
"""

from __future__ import annotations

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


class DawidSkene(TruthInference):
    """EM estimation of worker confusion matrices and task truths.

    Args:
        max_iterations: EM iteration cap.
        tolerance: Convergence threshold on the max change of any task
            posterior between iterations.
        smoothing: Laplace pseudo-count added to confusion-matrix cells.
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

        if self.backend == "kernel":
            # Flat index per (answer, hypothesized truth) into the
            # (n_workers, K, K) confusion tensor: worker*K*K + true*K + answered.
            conf_flat = (obs_worker * n_labels * n_labels + obs_label)[:, None] + (
                np.arange(n_labels) * n_labels
            )[None, :]
            # Flat index per (answer, hypothesized truth) into (n_tasks, K).
            ll_flat = obs_task[:, None] * n_labels + np.arange(n_labels)[None, :]

        priors = np.full(n_labels, 1.0 / n_labels)
        confusion = np.zeros((n_workers, n_labels, n_labels))
        iterations = 0
        converged = False

        span = self.em_span(answers_by_task)
        for iterations in range(1, self.max_iterations + 1):
            # ----- M-step: confusion matrices and class priors. -----
            # Accumulate posterior mass: confusion[w, true, answered] += p(task=true).
            if self.backend == "kernel":
                confusion = self.smoothing + np.bincount(
                    conf_flat.ravel(),
                    weights=posteriors[obs_task].ravel(),
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
            contrib = np.log(confusion[obs_worker, :, obs_label])
            if self.backend == "kernel":
                log_like = np.log(priors)[None, :] + np.bincount(
                    ll_flat.ravel(),
                    weights=contrib.ravel(),
                    minlength=n_tasks * n_labels,
                ).reshape(n_tasks, n_labels)
            else:
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
        for t_idx, task_id in enumerate(obs.task_ids):
            best = int(posteriors[t_idx].argmax())
            truths[task_id] = labels[best]
            confidences[task_id] = float(posteriors[t_idx, best])
            posterior_maps[task_id] = {
                labels[j]: float(posteriors[t_idx, j]) for j in range(n_labels)
            }
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
