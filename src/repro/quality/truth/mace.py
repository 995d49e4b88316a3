"""MACE-style truth inference: explicit spammer modeling.

MACE (Multi-Annotator Competence Estimation, Hovy et al.) models each
worker as either *competent* on an answer (copying the true label) or
*spamming* (drawing from a personal label-preference distribution,
independent of the truth). EM estimates, per worker, the spamming
probability and the spam distribution, plus per-task posteriors.

Where Dawid–Skene spends K^2 parameters per worker, MACE spends K+1 —
making it the method of choice exactly in the contaminated-pool regime the
T2 benchmark sweeps: it separates "usually right" from "answers without
looking" with far less data.

Two execution backends share the model math (see ``EM_BACKENDS``): the
default ``kernel`` backend is batched numpy over the shared sparse
observation encoding with log-space likelihoods (no per-answer 1e-300
clamp, no underflow collapse); ``legacy`` is the original per-answer loop
kept for the differential harness.
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
    label_space,
    normalize_log_rows,
    posteriors_to_maps,
    resolve_backend,
    select_truths,
    votes_by_task,
)


class Mace(TruthInference):
    """EM for the competence/spam mixture model.

    Args:
        max_iterations: EM iteration cap.
        tolerance: Convergence threshold on max posterior change.
        prior_competence: Initial P(not spamming) per worker.
        smoothing: Pseudo-count for spam-distribution estimation; a finite
            number >= 0 (a negative or NaN one makes every posterior NaN).
        backend: ``"kernel"`` (vectorized, log-space) or ``"legacy"``.
    """

    name = "mace"

    def __init__(
        self,
        max_iterations: int = 100,
        tolerance: float = 1e-6,
        prior_competence: float = 0.8,
        smoothing: float = 0.1,
        backend: str = "kernel",
    ):
        if not 0.0 < prior_competence < 1.0:
            raise InferenceError("prior_competence must be in (0, 1)")
        if max_iterations < 1:
            raise InferenceError("max_iterations must be >= 1")
        if not (math.isfinite(smoothing) and smoothing >= 0.0):
            raise InferenceError(f"smoothing must be a finite number >= 0, got {smoothing!r}")
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.prior_competence = prior_competence
        self.smoothing = smoothing
        self.backend = resolve_backend(backend)
        self._warm_competence: dict[str, float] = {}
        self._warm_spam: dict[str, dict[Any, float]] = {}
        self._last_competence: dict[str, float] = {}
        self._last_spam: dict[str, dict[Any, float]] = {}

    def export_state(self) -> dict[str, Any]:
        """Worker competences and spam distributions from the last run.

        JSON-serializable when the label space is (labels become object
        keys); checkpoints embed this under ``state["inference"]``.
        """
        return {
            "competence": dict(self._last_competence),
            "spam_distributions": {
                w: dict(dist) for w, dist in self._last_spam.items()
            },
        }

    def warm_start(self, state: Mapping[str, Any]) -> None:
        """Initialize the next EM run from exported worker parameters."""
        self._warm_competence = dict(state.get("competence", {}))
        self._warm_spam = {
            w: dict(dist) for w, dist in state.get("spam_distributions", {}).items()
        }

    def infer(self, answers_by_task: Mapping[str, Sequence[Answer]]) -> InferenceResult:
        self._validate(answers_by_task)
        with self.em_span(answers_by_task) as span:
            if self.backend == "kernel":
                result = self._infer_kernel(answers_by_task)
            else:
                result = self._infer_legacy(answers_by_task)
            span.set_tag("iterations", result.iterations)
            span.set_tag("converged", result.converged)
        return result

    def _initial_spam_row(self, labels: Sequence[Any], worker_id: str) -> list[float]:
        """Uniform spam preferences, overridden by warm-start state."""
        n = len(labels)
        warm = self._warm_spam.get(worker_id)
        if not warm:
            return [1.0 / n] * n
        row = [float(warm.get(label, 1.0 / n)) for label in labels]
        total = sum(row)
        return [v / total for v in row] if total > 0 else [1.0 / n] * n

    # ------------------------------------------------------------------ #
    # Vectorized log-space kernel
    # ------------------------------------------------------------------ #

    def _infer_kernel(
        self, answers_by_task: Mapping[str, Sequence[Answer]]
    ) -> InferenceResult:
        obs = encode_observations(answers_by_task)
        n_tasks, n_labels = obs.n_tasks, obs.n_labels
        n_workers = obs.n_workers
        competence = np.array(
            [self._warm_competence.get(w, self.prior_competence) for w in obs.worker_ids]
        )
        spam = np.array([self._initial_spam_row(obs.labels, w) for w in obs.worker_ids])

        flat_tl = obs.flat_task_label()
        flat_wl = obs.flat_worker_label()
        answer_count = obs.answers_per_worker()

        # Warm start from vote shares over the global label space.
        posteriors = np.bincount(flat_tl, minlength=n_tasks * n_labels).reshape(
            n_tasks, n_labels
        ) / obs.answers_per_task()[:, None]

        iterations = 0
        converged = False
        for iterations in range(1, self.max_iterations + 1):
            # ---- E-step: task posteriors under the mixture likelihood,
            # accumulated in log space. Each answer contributes
            # log((1-theta) * spam_p) unless it matches the hypothesized
            # truth, where the contribution rises to log(theta + miss).
            theta = competence[obs.obs_worker]
            miss = np.maximum((1.0 - theta) * spam[obs.obs_worker, obs.obs_label], 1e-300)
            match = theta + miss
            log_miss = np.log(miss)
            base = np.bincount(obs.obs_task, weights=log_miss, minlength=n_tasks)
            corr = np.log(match) - log_miss
            log_like = base[:, None] + np.bincount(
                flat_tl, weights=corr, minlength=n_tasks * n_labels
            ).reshape(n_tasks, n_labels)
            new_posteriors = normalize_log_rows(log_like)

            # Per-answer posterior that the worker was competent.
            p_competent = new_posteriors[obs.obs_task, obs.obs_label] * (theta / match)
            competent_mass = np.bincount(
                obs.obs_worker, weights=p_competent, minlength=n_workers
            )
            spam_counts = self.smoothing + np.bincount(
                flat_wl, weights=1.0 - p_competent, minlength=n_workers * n_labels
            ).reshape(n_workers, n_labels)

            # ---- M-step. ----
            competence = (competent_mass + 1.0) / (answer_count + 2.0)
            spam = spam_counts / spam_counts.sum(axis=1, keepdims=True)

            delta = float(np.abs(new_posteriors - posteriors).max())
            posteriors = new_posteriors
            self.em_iteration(iterations, delta)
            if delta < self.tolerance:
                converged = True
                break

        self._last_competence = {
            w: float(c) for w, c in zip(obs.worker_ids, competence)
        }
        self._last_spam = {
            w: {label: float(p) for label, p in zip(obs.labels, spam[i])}
            for i, w in enumerate(obs.worker_ids)
        }
        posterior_maps = posteriors_to_maps(obs, posteriors)
        truths, confidences = select_truths(posterior_maps)
        return InferenceResult(
            truths=truths,
            confidences=confidences,
            worker_quality=dict(self._last_competence),
            iterations=iterations,
            converged=converged,
            posteriors=posterior_maps,
            spam_distributions={w: dict(d) for w, d in self._last_spam.items()},
        )

    # ------------------------------------------------------------------ #
    # Legacy per-answer loop (linear-space likelihoods)
    # ------------------------------------------------------------------ #

    def _infer_legacy(
        self, answers_by_task: Mapping[str, Sequence[Answer]]
    ) -> InferenceResult:
        labels = label_space(answers_by_task)
        n_labels = len(labels)
        worker_ids = sorted({a.worker_id for ans in answers_by_task.values() for a in ans})

        competence = {
            w: self._warm_competence.get(w, self.prior_competence) for w in worker_ids
        }
        spam_dist: dict[str, dict[Any, float]] = {
            w: dict(zip(labels, self._initial_spam_row(labels, w))) for w in worker_ids
        }

        # Warm start from vote shares.
        posteriors: dict[str, dict[Any, float]] = {}
        for task_id, counts in votes_by_task(answers_by_task).items():
            total = sum(counts.values())
            posteriors[task_id] = {
                label: counts.get(label, 0) / total for label in labels
            }

        iterations = 0
        converged = False
        for iterations in range(1, self.max_iterations + 1):
            # ---- E-step: task posteriors under the mixture likelihood. ----
            new_posteriors: dict[str, dict[Any, float]] = {}
            # Also accumulate, per answer, the posterior probability that
            # the worker was competent (needed for the M-step).
            competent_mass = {w: 0.0 for w in worker_ids}
            answer_count = {w: 0 for w in worker_ids}
            spam_counts: dict[str, dict[Any, float]] = {
                w: {label: self.smoothing for label in labels} for w in worker_ids
            }

            for task_id, answers in answers_by_task.items():
                scores: dict[Any, float] = {}
                for true_label in labels:
                    likelihood = 1.0
                    for a in answers:
                        theta = competence[a.worker_id]
                        spam_p = spam_dist[a.worker_id].get(a.value, 1e-9)
                        if a.value == true_label:
                            likelihood *= theta + (1 - theta) * spam_p
                        else:
                            likelihood *= (1 - theta) * spam_p
                        # The per-answer floor that saturates every label's
                        # score on answer-heavy tasks — the underflow bug
                        # the kernel backend fixes.
                        likelihood = max(likelihood, 1e-300)
                    scores[true_label] = likelihood
                total = sum(scores.values())
                if total <= 0:
                    post = {label: 1.0 / n_labels for label in labels}
                else:
                    post = {label: s / total for label, s in scores.items()}
                new_posteriors[task_id] = post

                for a in answers:
                    theta = competence[a.worker_id]
                    spam_p = spam_dist[a.worker_id].get(a.value, 1e-9)
                    # P(competent | answer, truth=answer's label) weighted by
                    # the posterior that the truth equals the answer.
                    p_truth_matches = post.get(a.value, 0.0)
                    if theta + (1 - theta) * spam_p > 0:
                        p_competent_given_match = theta / (theta + (1 - theta) * spam_p)
                    else:
                        p_competent_given_match = 0.0
                    p_competent = p_truth_matches * p_competent_given_match
                    competent_mass[a.worker_id] += p_competent
                    answer_count[a.worker_id] += 1
                    # Spam emissions: answer mass not explained by copying.
                    spam_counts[a.worker_id][a.value] += 1.0 - p_competent

            # ---- M-step. ----
            for w in worker_ids:
                n = answer_count[w]
                if n > 0:
                    # Beta(2,2)-smoothed competence.
                    competence[w] = (competent_mass[w] + 1.0) / (n + 2.0)
                total_spam = sum(spam_counts[w].values())
                spam_dist[w] = {
                    label: spam_counts[w][label] / total_spam for label in labels
                }

            delta = max(
                abs(p - posteriors[task_id].get(label, 0.0))
                for task_id, post in new_posteriors.items()
                for label, p in post.items()
            )
            posteriors = new_posteriors
            self.em_iteration(iterations, delta)
            if delta < self.tolerance:
                converged = True
                break

        self._last_competence = dict(competence)
        self._last_spam = {w: dict(d) for w, d in spam_dist.items()}
        truths, confidences = select_truths(posteriors)
        return InferenceResult(
            truths=truths,
            confidences=confidences,
            worker_quality=dict(competence),
            iterations=iterations,
            converged=converged,
            posteriors=posteriors,
            spam_distributions={w: dict(d) for w, d in spam_dist.items()},
        )
