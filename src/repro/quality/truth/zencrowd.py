"""ZenCrowd-style truth inference: EM over one-coin worker reliabilities.

The *worker probability* model: worker w answers correctly with a single
reliability p_w, and errors are spread uniformly over the remaining labels
of each task. Lighter-weight than Dawid–Skene (one parameter per worker),
it is the tutorial's canonical middle ground between MV and full confusion
matrices — and unlike DS it handles tasks whose option sets differ.

Two execution backends share the model math (see ``EM_BACKENDS``): the
default ``kernel`` backend runs the EM loop as batched numpy operations
over the shared :class:`~repro.quality.truth.base.SparseObservations`
encoding with likelihoods accumulated in log space, so answer-heavy tasks
can no longer underflow the E-step into a uniform posterior; the
``legacy`` backend is the original per-answer loop, kept as the reference
side of the differential harness.
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
    normalize_log_rows,
    posteriors_to_maps,
    resolve_backend,
    select_truths,
    votes_by_task,
)


class ZenCrowd(TruthInference):
    """One-coin EM truth inference.

    Args:
        max_iterations: EM iteration cap.
        tolerance: Convergence threshold on the max posterior change.
        prior_reliability: Initial p_w for every worker.
        backend: ``"kernel"`` (vectorized, log-space) or ``"legacy"``.
    """

    name = "zc"

    def __init__(
        self,
        max_iterations: int = 100,
        tolerance: float = 1e-6,
        prior_reliability: float = 0.7,
        backend: str = "kernel",
    ):
        if not 0.0 < prior_reliability < 1.0:
            raise InferenceError("prior_reliability must be in (0, 1)")
        if max_iterations < 1:
            raise InferenceError("max_iterations must be >= 1")
        self.max_iterations = max_iterations
        self.tolerance = tolerance
        self.prior_reliability = prior_reliability
        self.backend = resolve_backend(backend)
        self._warm_reliability: dict[str, float] = {}
        self._last_reliability: dict[str, float] = {}

    def export_state(self) -> dict[str, Any]:
        """Worker reliabilities estimated by the most recent :meth:`infer`."""
        return {"reliability": dict(self._last_reliability)}

    def warm_start(self, state: Mapping[str, Any]) -> None:
        """Initialize the next EM run from exported worker reliabilities."""
        self._warm_reliability = dict(state.get("reliability", {}))

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
        reliability = np.array(
            [self._warm_reliability.get(w, self.prior_reliability) for w in obs.worker_ids]
        )
        # log(k - 1) per answer: the error-spread divisor of the answer's task.
        log_spread = np.log(obs.spread_counts() - 1.0)[obs.obs_task]
        flat_tl = obs.flat_task_label()
        count = obs.answers_per_worker()

        posteriors = np.zeros((n_tasks, n_labels))
        iterations = 0
        converged = False
        for iterations in range(1, self.max_iterations + 1):
            # E-step in log space. log L(t, l) decomposes into a per-task
            # base (every answer scored as an error) plus, on each answered
            # label, the correction from error to correct.
            p = np.clip(reliability, 0.001, 0.999)
            log_err = np.log1p(-p)[obs.obs_worker] - log_spread
            base = np.bincount(obs.obs_task, weights=log_err, minlength=n_tasks)
            corr = np.log(p)[obs.obs_worker] - log_err
            log_like = base[:, None] + np.bincount(
                flat_tl, weights=corr, minlength=n_tasks * n_labels
            ).reshape(n_tasks, n_labels)
            new_posteriors = normalize_log_rows(log_like, mask=obs.candidate_mask)

            # M-step: reliability = expected fraction of correct answers,
            # Beta(2,2)/Laplace posterior-mean smoothed.
            mass = np.bincount(
                obs.obs_worker,
                weights=new_posteriors[obs.obs_task, obs.obs_label],
                minlength=obs.n_workers,
            )
            reliability = (mass + 1.0) / (count + 2.0)

            delta = (
                float(np.abs(new_posteriors - posteriors).max()) if iterations > 1 else 1.0
            )
            posteriors = new_posteriors
            self.em_iteration(iterations, delta)
            if delta < self.tolerance:
                converged = True
                break

        self._last_reliability = {
            w: float(r) for w, r in zip(obs.worker_ids, reliability)
        }
        posterior_maps = posteriors_to_maps(obs, posteriors, candidates_only=True)
        truths, confidences = select_truths(posterior_maps)
        return InferenceResult(
            truths=truths,
            confidences=confidences,
            worker_quality=dict(self._last_reliability),
            iterations=iterations,
            converged=converged,
            posteriors=posterior_maps,
        )

    # ------------------------------------------------------------------ #
    # Legacy per-answer loop (linear-space likelihoods)
    # ------------------------------------------------------------------ #

    def _infer_legacy(
        self, answers_by_task: Mapping[str, Sequence[Answer]]
    ) -> InferenceResult:
        # Candidate label set per task = labels actually answered for it.
        candidates: dict[str, list[Any]] = {
            task_id: sorted(counts, key=repr)
            for task_id, counts in votes_by_task(answers_by_task).items()
        }
        worker_ids = sorted({a.worker_id for ans in answers_by_task.values() for a in ans})
        reliability = {
            w: self._warm_reliability.get(w, self.prior_reliability) for w in worker_ids
        }

        posteriors: dict[str, dict[Any, float]] = {}
        iterations = 0
        converged = False
        for iterations in range(1, self.max_iterations + 1):
            # E-step: posterior over each task's candidate labels. Linear
            # space: products of ~300+ per-answer factors underflow to 0.0
            # and collapse to the uniform fallback below — the bug the
            # kernel backend fixes.
            new_posteriors: dict[str, dict[Any, float]] = {}
            for task_id, answers in answers_by_task.items():
                labels = candidates[task_id]
                k = max(2, len(labels))  # at least binary error spread
                scores: dict[Any, float] = {}
                for label in labels:
                    likelihood = 1.0
                    for a in answers:
                        p = min(0.999, max(0.001, reliability[a.worker_id]))
                        if a.value == label:
                            likelihood *= p
                        else:
                            likelihood *= (1.0 - p) / (k - 1)
                    scores[label] = likelihood
                total = sum(scores.values())
                if total <= 0:
                    uniform = 1.0 / len(labels)
                    new_posteriors[task_id] = {label: uniform for label in labels}
                else:
                    new_posteriors[task_id] = {
                        label: s / total for label, s in scores.items()
                    }

            # M-step: reliability = expected fraction of correct answers.
            mass: dict[str, float] = {w: 0.0 for w in worker_ids}
            count: dict[str, int] = {w: 0 for w in worker_ids}
            for task_id, answers in answers_by_task.items():
                post = new_posteriors[task_id]
                for a in answers:
                    mass[a.worker_id] += post.get(a.value, 0.0)
                    count[a.worker_id] += 1
            new_reliability = {
                # Beta(2,2)/Laplace posterior-mean smoothing: one pseudo
                # success and one pseudo failure (same form MACE uses for
                # competence), not Beta(1,1) as previously claimed.
                w: (mass[w] + 1.0) / (count[w] + 2.0)
                for w in worker_ids
            }

            delta = 0.0
            if posteriors:
                for task_id, post in new_posteriors.items():
                    for label, p in post.items():
                        delta = max(delta, abs(p - posteriors[task_id].get(label, 0.0)))
            else:
                delta = 1.0
            posteriors = new_posteriors
            reliability = new_reliability
            self.em_iteration(iterations, delta)
            if delta < self.tolerance:
                converged = True
                break

        self._last_reliability = dict(reliability)
        truths, confidences = select_truths(posteriors)
        return InferenceResult(
            truths=truths,
            confidences=confidences,
            worker_quality=dict(reliability),
            iterations=iterations,
            converged=converged,
            posteriors=posteriors,
        )
