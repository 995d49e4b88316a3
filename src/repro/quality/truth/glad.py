"""GLAD truth inference: jointly estimate worker ability and task difficulty.

Whitehill et al.'s model, surveyed by the tutorial as the representative
*ability × difficulty* method: the probability that worker w answers task t
correctly is ``sigmoid(alpha_w * beta_t)`` with ability ``alpha_w`` in R and
inverse-difficulty ``beta_t > 0``. Errors spread uniformly over the other
candidate labels. EM alternates task posteriors (E) with gradient ascent on
(alpha, log beta) (M).

Two execution backends share the model math (see ``EM_BACKENDS``): the
default ``kernel`` backend vectorizes both the gradient-ascent M-step and
the log-space E-step over the shared sparse observation encoding;
``legacy`` is the original per-answer loop kept for the differential
harness.
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
    normalize_log_rows,
    posteriors_to_maps,
    resolve_backend,
    select_truths,
    votes_by_task,
)


def _sigmoid(x: float) -> float:
    if x >= 0:
        z = math.exp(-x)
        return 1.0 / (1.0 + z)
    z = math.exp(x)
    return z / (1.0 + z)


def _sigmoid_arr(x: np.ndarray) -> np.ndarray:
    """Overflow-safe elementwise sigmoid (same branches as :func:`_sigmoid`)."""
    z = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + z), z / (1.0 + z))


class Glad(TruthInference):
    """GLAD EM with gradient-ascent M-step.

    Args:
        max_iterations: Outer EM iteration cap.
        gradient_steps: Gradient-ascent steps per M-step.
        learning_rate: Step size for ability/difficulty updates.
        tolerance: Convergence threshold on max posterior change.
        prior_ability: Initial alpha for every worker.
        backend: ``"kernel"`` (vectorized, log-space) or ``"legacy"``.
    """

    name = "glad"

    def __init__(
        self,
        max_iterations: int = 50,
        gradient_steps: int = 10,
        learning_rate: float = 0.05,
        tolerance: float = 1e-5,
        prior_ability: float = 1.0,
        backend: str = "kernel",
    ):
        if max_iterations < 1 or gradient_steps < 1:
            raise InferenceError("iteration counts must be >= 1")
        self.max_iterations = max_iterations
        self.gradient_steps = gradient_steps
        self.learning_rate = learning_rate
        self.tolerance = tolerance
        self.prior_ability = prior_ability
        self.backend = resolve_backend(backend)
        self._warm_ability: dict[str, float] = {}
        self._warm_log_beta: dict[str, float] = {}
        self._last_ability: dict[str, float] = {}
        self._last_difficulty: dict[str, float] = {}

    def export_state(self) -> dict[str, Any]:
        """Worker abilities and task difficulties from the last run."""
        return {
            "ability": dict(self._last_ability),
            "task_difficulty": dict(self._last_difficulty),
        }

    def warm_start(self, state: Mapping[str, Any]) -> None:
        """Initialize the next EM run from exported abilities/difficulties.

        Difficulty d maps back to the internal parameter via
        ``log_beta = log((1 - d) / d)``, clipped to the optimizer's box.
        """
        self._warm_ability = dict(state.get("ability", {}))
        self._warm_log_beta = {}
        for task_id, diff in state.get("task_difficulty", {}).items():
            d = min(max(float(diff), 1e-6), 1.0 - 1e-6)
            self._warm_log_beta[task_id] = max(-3.0, min(3.0, math.log((1.0 - d) / d)))

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

    # ------------------------------------------------------------------ #
    # Vectorized log-space kernel
    # ------------------------------------------------------------------ #

    def _infer_kernel(
        self, answers_by_task: Mapping[str, Sequence[Answer]]
    ) -> InferenceResult:
        obs = encode_observations(answers_by_task)
        n_tasks, n_labels = obs.n_tasks, obs.n_labels
        alpha = np.array(
            [self._warm_ability.get(w, self.prior_ability) for w in obs.worker_ids]
        )
        log_beta = np.array(
            [self._warm_log_beta.get(t, 0.0) for t in obs.task_ids]
        )  # beta = exp(log_beta) > 0

        log_spread = np.log(obs.spread_counts() - 1.0)[obs.obs_task]
        flat_tl = obs.flat_task_label()

        # Warm-start posteriors from vote shares over each task's candidates.
        posteriors = np.bincount(flat_tl, minlength=n_tasks * n_labels).reshape(
            n_tasks, n_labels
        ) / obs.answers_per_task()[:, None]

        iterations = 0
        converged = False
        for iterations in range(1, self.max_iterations + 1):
            # ----- M-step: gradient ascent on expected log-likelihood. -----
            for _ in range(self.gradient_steps):
                beta_obs = np.exp(log_beta)[obs.obs_task]
                sig = _sigmoid_arr(alpha[obs.obs_worker] * beta_obs)
                p_correct = posteriors[obs.obs_task, obs.obs_label]
                # d/dx of E[log P(answer)]:
                #   correct with prob q: q*(1-sig) ; incorrect: -(1-q)*sig
                # (error likelihood (1-sig)/(k-1); the 1/(k-1) is
                #  constant w.r.t. parameters)
                dx = p_correct * (1.0 - sig) - (1.0 - p_correct) * sig
                grad_alpha = np.bincount(
                    obs.obs_worker, weights=dx * beta_obs, minlength=obs.n_workers
                )
                grad_logbeta = np.bincount(
                    obs.obs_task,
                    weights=dx * alpha[obs.obs_worker] * beta_obs,
                    minlength=n_tasks,
                )
                alpha = np.clip(alpha + self.learning_rate * grad_alpha, -6.0, 6.0)
                log_beta = np.clip(log_beta + self.learning_rate * grad_logbeta, -3.0, 3.0)

            # ----- E-step: posteriors from log-likelihoods. -----
            sig = np.clip(
                _sigmoid_arr(alpha[obs.obs_worker] * np.exp(log_beta)[obs.obs_task]),
                0.001,
                0.999,
            )
            log_err = np.log1p(-sig) - log_spread
            base = np.bincount(obs.obs_task, weights=log_err, minlength=n_tasks)
            corr = np.log(sig) - log_err
            log_like = base[:, None] + np.bincount(
                flat_tl, weights=corr, minlength=n_tasks * n_labels
            ).reshape(n_tasks, n_labels)
            new_posteriors = normalize_log_rows(log_like, mask=obs.candidate_mask)

            delta = float(np.abs(new_posteriors - posteriors).max())
            posteriors = new_posteriors
            self.em_iteration(iterations, delta)
            if delta < self.tolerance:
                converged = True
                break

        self._last_ability = {w: float(a) for w, a in zip(obs.worker_ids, alpha)}
        self._last_difficulty = {
            t: 1.0 - _sigmoid(float(lb)) for t, lb in zip(obs.task_ids, log_beta)
        }
        posterior_maps = posteriors_to_maps(obs, posteriors, candidates_only=True)
        truths, confidences = select_truths(posterior_maps)
        worker_quality = {
            w: _sigmoid(float(a)) for w, a in zip(obs.worker_ids, alpha)
        }
        return InferenceResult(
            truths=truths,
            confidences=confidences,
            worker_quality=worker_quality,
            iterations=iterations,
            converged=converged,
            posteriors=posterior_maps,
            task_difficulty=dict(self._last_difficulty),
        )

    # ------------------------------------------------------------------ #
    # Legacy per-answer loop
    # ------------------------------------------------------------------ #

    def _infer_legacy(
        self, answers_by_task: Mapping[str, Sequence[Answer]]
    ) -> InferenceResult:
        tally = votes_by_task(answers_by_task)
        candidates: dict[str, list[Any]] = {
            task_id: sorted(counts, key=repr) for task_id, counts in tally.items()
        }
        worker_ids = sorted({a.worker_id for ans in answers_by_task.values() for a in ans})
        alpha = {w: self._warm_ability.get(w, self.prior_ability) for w in worker_ids}
        log_beta = {
            t: self._warm_log_beta.get(t, 0.0) for t in answers_by_task
        }  # beta = exp(log_beta) > 0

        # Warm-start posteriors from vote shares.
        posteriors: dict[str, dict[Any, float]] = {}
        for task_id, counts in tally.items():
            total = sum(counts.values())
            posteriors[task_id] = {label: c / total for label, c in counts.items()}

        iterations = 0
        converged = False
        for iterations in range(1, self.max_iterations + 1):
            # ----- M-step: gradient ascent on expected log-likelihood. -----
            for _ in range(self.gradient_steps):
                grad_alpha = {w: 0.0 for w in worker_ids}
                grad_logbeta = {t: 0.0 for t in answers_by_task}
                for task_id, answers in answers_by_task.items():
                    beta = math.exp(log_beta[task_id])
                    post = posteriors[task_id]
                    for a in answers:
                        x = alpha[a.worker_id] * beta
                        sig = _sigmoid(x)
                        p_correct = post.get(a.value, 0.0)
                        # d/dx of E[log P(answer)]:
                        #   correct with prob q: q*(1-sig) ; incorrect: -(1-q)*sig
                        # (error likelihood (1-sig)/(k-1); the 1/(k-1) is
                        #  constant w.r.t. parameters)
                        dx = p_correct * (1.0 - sig) - (1.0 - p_correct) * sig
                        grad_alpha[a.worker_id] += dx * beta
                        grad_logbeta[task_id] += dx * alpha[a.worker_id] * beta
                for w in worker_ids:
                    alpha[w] += self.learning_rate * grad_alpha[w]
                    alpha[w] = max(-6.0, min(6.0, alpha[w]))
                for t in answers_by_task:
                    log_beta[t] += self.learning_rate * grad_logbeta[t]
                    log_beta[t] = max(-3.0, min(3.0, log_beta[t]))

            # ----- E-step: recompute posteriors. -----
            new_posteriors: dict[str, dict[Any, float]] = {}
            for task_id, answers in answers_by_task.items():
                labels = candidates[task_id]
                k = max(2, len(labels))
                beta = math.exp(log_beta[task_id])
                scores: dict[Any, float] = {}
                for label in labels:
                    log_like = 0.0
                    for a in answers:
                        sig = _sigmoid(alpha[a.worker_id] * beta)
                        sig = min(0.999, max(0.001, sig))
                        if a.value == label:
                            log_like += math.log(sig)
                        else:
                            log_like += math.log((1.0 - sig) / (k - 1))
                    scores[label] = log_like
                peak = max(scores.values())
                exp_scores = {label: math.exp(s - peak) for label, s in scores.items()}
                total = sum(exp_scores.values())
                new_posteriors[task_id] = {
                    label: s / total for label, s in exp_scores.items()
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

        self._last_ability = dict(alpha)
        self._last_difficulty = {
            t: 1.0 - _sigmoid(lb) for t, lb in log_beta.items()
        }
        truths, confidences = select_truths(posteriors)
        worker_quality = {w: _sigmoid(alpha[w]) for w in worker_ids}
        return InferenceResult(
            truths=truths,
            confidences=confidences,
            worker_quality=worker_quality,
            iterations=iterations,
            converged=converged,
            posteriors=posteriors,
            task_difficulty=dict(self._last_difficulty),
        )
