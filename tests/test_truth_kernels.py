"""Differential-equivalence harness: vectorized EM kernels vs legacy loops.

Every EM method (ZenCrowd, MACE, GLAD, Dawid–Skene) runs the same model
math through two backends: the batched log-space numpy ``kernel`` (the
default) and the original per-answer ``legacy`` loop. On seeded workloads
the two must agree on every inferred truth, agree on posteriors and worker
quality within 1e-6, and preserve ``iterations``/``converged`` semantics.

GLAD gets a bounded iteration budget here: its gradient-ascent M-step is a
chaotic iterated map, so the ulp-level differences between equivalent
floating-point summation orders (bincount vs per-answer accumulation,
``np.exp`` vs ``math.exp``) amplify exponentially with iteration count.
The per-step map itself is exact — pinned by the tight-tolerance
single-step tests below.
"""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.errors import InferenceError
from repro.obs.sinks import MemorySink
from repro.obs.tracer import Tracer
from repro.platform.platform import SimulatedPlatform
from repro.platform.task import Answer
from repro.quality.truth import (
    EM_BACKENDS,
    BayesianVote,
    DawidSkene,
    Glad,
    Mace,
    ZenCrowd,
    encode_observations,
)
from repro.recovery import Checkpoint
from repro.workers.pool import WorkerPool

from conftest import make_choice_tasks

# Factories pinning the configs under which kernel/legacy equivalence is
# asserted. GLAD is capped at 10 EM iterations (see module docstring).
EM_FACTORIES = {
    "zc": lambda backend: ZenCrowd(backend=backend),
    "mace": lambda backend: Mace(backend=backend),
    "glad": lambda backend: Glad(max_iterations=10, backend=backend),
    "ds": lambda backend: DawidSkene(backend=backend),
}

WORKLOADS = {
    "hetero": lambda: _evidence(seed=7),
    "spammy": lambda: _evidence(
        seed=3, pool=WorkerPool.with_spammers(24, spammer_fraction=0.3, seed=3)
    ),
    "sparse": lambda: _evidence(seed=11, n_tasks=60, redundancy=2),
    # The DS kernel reduces over labels column by column, which equals
    # numpy's row reductions only below 8 labels: label_batch's five
    # labels sit on one side of that rule, ten labels on the other.
    "five_labels": lambda: _evidence(seed=5, labels=("a", "b", "c", "d", "e")),
    "ten_labels": lambda: _evidence(seed=13, n_tasks=150, labels=tuple("abcdefghij")),
}

#: sha256 of the DS kernel's posterior matrix (tasks x labels, float64
#: bytes) on the "five_labels" workload, recorded before the kernel took
#: the confusion table's log once and reduced rows column by column.
DS_FIVE_LABEL_POSTERIORS = "9f72a9a61f85d2d8b7bed489ee51f7b7f4e2369093358f20a1f2c1d457c02d58"
#: sha256 of np.exp and np.log over two fixed grids where that digest was
#: recorded (numpy 2.4.6, x86-64 with AVX-512). numpy's SIMD exp/log may
#: round a last bit differently on other CPUs, and so move the digest.
RECORDING_FP = "e62f1d4c1ff2b2cf8b639448bda651a710f68a79a3b8085cdddbbc5ebe9e3fad"


def _evidence(n_tasks=120, pool=None, redundancy=5, seed=7, labels=("a", "b", "c")):
    pool = pool or WorkerPool.heterogeneous(20, seed=seed)
    platform = SimulatedPlatform(pool, seed=seed + 1)
    tasks = make_choice_tasks(n_tasks, labels=labels, seed=seed)
    return platform.collect(tasks, redundancy=redundancy)


def _manual(votes):
    return {
        task_id: [Answer(task_id=task_id, worker_id=w, value=v) for w, v in pairs]
        for task_id, pairs in votes.items()
    }


def _one_task(n_a, n_b, label_a="a", label_b="b"):
    """A single task with n_a + n_b answers from distinct workers."""
    answers = [
        Answer(task_id="t", worker_id=f"wa{i}", value=label_a) for i in range(n_a)
    ] + [Answer(task_id="t", worker_id=f"wb{i}", value=label_b) for i in range(n_b)]
    return {"t": answers}


def _posterior_matrix(result, answers):
    return np.array([list(result.posteriors[t].values()) for t in answers])


def _fp_fingerprint():
    exp = np.exp(np.linspace(-30.0, 0.0, 1001))
    log = np.log(np.linspace(1e-6, 1.0, 1001))
    return hashlib.sha256(exp.tobytes() + log.tobytes()).hexdigest()


def _ds_first_formulation(answers, smoothing=0.01, max_iterations=100, tolerance=1e-5):
    """The DS kernel's posteriors as the kernel first computed them: gather
    each answer's confusion column, then take its log; numpy's row max
    and row sum."""
    obs = encode_observations(answers)
    n_tasks, k, n_workers = obs.n_tasks, obs.n_labels, obs.n_workers
    rows = np.bincount(
        obs.flat_task_label(), weights=np.ones(obs.n_obs), minlength=n_tasks * k
    ).reshape(n_tasks, k)
    posteriors = rows / rows.sum(axis=1, keepdims=True)
    conf_flat = (obs.obs_worker * k * k + obs.obs_label)[:, None] + (np.arange(k) * k)[None, :]
    ll_flat = obs.obs_task[:, None] * k + np.arange(k)[None, :]
    for _ in range(max_iterations):
        confusion = smoothing + np.bincount(
            conf_flat.ravel(),
            weights=posteriors[obs.obs_task].ravel(),
            minlength=n_workers * k * k,
        ).reshape(n_workers, k, k)
        confusion /= confusion.sum(axis=2, keepdims=True)
        priors = np.clip(posteriors.mean(axis=0), 1e-9, None)
        priors /= priors.sum()
        contrib = np.log(confusion[obs.obs_worker, :, obs.obs_label])
        log_like = np.log(priors)[None, :] + np.bincount(
            ll_flat.ravel(), weights=contrib.ravel(), minlength=n_tasks * k
        ).reshape(n_tasks, k)
        log_like -= log_like.max(axis=1, keepdims=True)
        new_posteriors = np.exp(log_like)
        new_posteriors /= new_posteriors.sum(axis=1, keepdims=True)
        delta = float(np.abs(new_posteriors - posteriors).max())
        posteriors = new_posteriors
        if delta < tolerance:
            break
    return posteriors


def _assert_equivalent(kernel, legacy, tol=1e-6):
    assert kernel.truths == legacy.truths
    assert kernel.iterations == legacy.iterations
    assert kernel.converged == legacy.converged
    for task_id in legacy.posteriors:
        labels = set(legacy.posteriors[task_id]) | set(kernel.posteriors[task_id])
        for label in labels:
            assert kernel.posteriors[task_id].get(label, 0.0) == pytest.approx(
                legacy.posteriors[task_id].get(label, 0.0), abs=tol
            )
    assert set(kernel.worker_quality) == set(legacy.worker_quality)
    for w in legacy.worker_quality:
        assert kernel.worker_quality[w] == pytest.approx(
            legacy.worker_quality[w], abs=tol
        )


class TestSparseEncoding:
    def test_round_trips_evidence(self):
        evidence = _manual(
            {"t1": [("w2", "b"), ("w1", "a")], "t2": [("w1", "c"), ("w2", "a")]}
        )
        obs = encode_observations(evidence)
        assert obs.task_ids == ("t1", "t2")
        assert obs.worker_ids == ("w1", "w2")
        assert obs.labels == ("a", "b", "c")
        assert obs.n_obs == 4
        # Row i encodes the i-th answer in task order.
        decoded = [
            (obs.task_ids[t], obs.worker_ids[w], obs.labels[v])
            for t, w, v in zip(obs.obs_task, obs.obs_worker, obs.obs_label)
        ]
        assert decoded == [
            ("t1", "w2", "b"), ("t1", "w1", "a"), ("t2", "w1", "c"), ("t2", "w2", "a")
        ]

    def test_candidate_mask_marks_answered_labels(self):
        evidence = _manual({"t1": [("w1", "a"), ("w2", "b")], "t2": [("w1", "c")]})
        obs = encode_observations(evidence)
        assert obs.candidate_mask.tolist() == [[True, True, False], [False, False, True]]
        assert obs.spread_counts().tolist() == [2, 2]  # single candidate floors at 2

    def test_counts(self):
        evidence = _manual({"t1": [("w1", "a"), ("w1", "a"), ("w2", "b")]})
        obs = encode_observations(evidence)
        assert obs.answers_per_task().tolist() == [3]
        assert obs.answers_per_worker().tolist() == [2, 1]

    def test_unknown_backend_rejected(self):
        for cls in (ZenCrowd, Mace, Glad, DawidSkene):
            with pytest.raises(InferenceError):
                cls(backend="numba")


class TestDifferentialEquivalence:
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    @pytest.mark.parametrize("method", sorted(EM_FACTORIES))
    def test_kernel_matches_legacy(self, method, workload):
        answers = WORKLOADS[workload]()
        kernel = EM_FACTORIES[method]("kernel").infer(answers)
        legacy = EM_FACTORIES[method]("legacy").infer(answers)
        _assert_equivalent(kernel, legacy)

    @pytest.mark.parametrize("iters", [1, 2, 3])
    def test_glad_em_map_is_exact_per_step(self, iters):
        """The GLAD kernel computes the same per-step map as the legacy
        loop to near machine precision; only long chaotic iteration
        amplifies summation-order noise (hence the capped budget above)."""
        answers = _evidence(seed=7)
        kernel = Glad(max_iterations=iters, backend="kernel").infer(answers)
        legacy = Glad(max_iterations=iters, backend="legacy").infer(answers)
        _assert_equivalent(kernel, legacy, tol=1e-12)
        for t in legacy.task_difficulty:
            assert kernel.task_difficulty[t] == pytest.approx(
                legacy.task_difficulty[t], abs=1e-12
            )

    def test_mace_spam_distributions_match(self):
        answers = WORKLOADS["spammy"]()
        kernel = Mace(backend="kernel").infer(answers)
        legacy = Mace(backend="legacy").infer(answers)
        for w in legacy.spam_distributions:
            for label, p in legacy.spam_distributions[w].items():
                assert kernel.spam_distributions[w][label] == pytest.approx(p, abs=1e-6)

    @pytest.mark.parametrize("method", ["zc", "ds", "mace", "glad"])
    def test_export_state_agrees_across_backends(self, method):
        answers = WORKLOADS["hetero"]()
        kernel = EM_FACTORIES[method]("kernel")
        legacy = EM_FACTORIES[method]("legacy")
        kernel.infer(answers)
        legacy.infer(answers)
        k_state, l_state = kernel.export_state(), legacy.export_state()
        assert k_state.keys() == l_state.keys()
        # Structural equality within tolerance.
        for key, k_val in k_state.items():
            l_val = l_state[key]
            assert set(k_val) == set(l_val)
            for entry in k_val:
                if isinstance(k_val[entry], dict):
                    for label in k_val[entry]:
                        assert k_val[entry][label] == pytest.approx(
                            l_val[entry][label], abs=1e-6
                        )
                else:
                    assert k_val[entry] == pytest.approx(l_val[entry], abs=1e-6)

    def test_zencrowd_warm_start_equivalent(self):
        answers = _evidence(seed=5, n_tasks=60)
        state = {"reliability": {f"w{i}": 0.6 + 0.01 * i for i in range(10)}}
        results = []
        for backend in EM_BACKENDS:
            algo = ZenCrowd(backend=backend)
            algo.warm_start(state)
            results.append(algo.infer(answers))
        _assert_equivalent(*results)


class TestDawidSkeneKernelPin:
    """The DS kernel's iteration is cheaper than it was, not different."""

    @pytest.mark.parametrize("workload", ["five_labels", "ten_labels", "hetero"])
    def test_bit_identical_to_the_first_formulation(self, workload):
        answers = WORKLOADS[workload]()
        got = _posterior_matrix(DawidSkene().infer(answers), answers)
        assert got.tobytes() == _ds_first_formulation(answers).tobytes()

    def test_five_label_posteriors_match_the_recorded_digest(self):
        if _fp_fingerprint() != RECORDING_FP:
            pytest.skip("np.exp/np.log round differently here than where the digest was recorded")
        answers = WORKLOADS["five_labels"]()
        posteriors = _posterior_matrix(DawidSkene().infer(answers), answers)
        assert hashlib.sha256(posteriors.tobytes()).hexdigest() == DS_FIVE_LABEL_POSTERIORS


class TestUnderflowRegression:
    """Satellite 1: linear-space likelihoods underflow on answer-heavy tasks.

    Both scenarios have an unambiguous majority label, yet the legacy
    E-steps collapse to a uniform posterior (and an arbitrary repr
    tie-break winner) because every label's linear-space likelihood hits
    0.0 / the 1e-300 floor. The log-space kernels keep the evidence.
    """

    def test_zencrowd_240_answers_confident_posterior(self):
        evidence = _one_task(130, 110)  # 240 answers on one task
        result = ZenCrowd(prior_reliability=0.999).infer(evidence)
        assert result.truths["t"] == "a"
        assert result.confidences["t"] > 0.99  # non-uniform, confident

    def test_zencrowd_legacy_collapses_to_uniform(self):
        evidence = _one_task(130, 110)
        legacy = ZenCrowd(prior_reliability=0.999, backend="legacy").infer(evidence)
        # The bug this PR fixes: total underflow -> uniform fallback, and
        # the repr tie-break then picks the *minority* label.
        assert legacy.confidences["t"] == pytest.approx(0.5)
        assert legacy.truths["t"] == "b"

    def test_mace_answer_heavy_task_confident_posterior(self):
        evidence = _one_task(1000, 900)  # 1900 answers on one task
        result = Mace(prior_competence=0.99).infer(evidence)
        assert result.truths["t"] == "a"
        assert result.confidences["t"] > 0.99

    def test_mace_legacy_floor_saturates_to_uniform(self):
        evidence = _one_task(1000, 900)
        legacy = Mace(prior_competence=0.99, backend="legacy").infer(evidence)
        assert legacy.confidences["t"] == pytest.approx(0.5)


class TestDegenerateInputs:
    """Satellite 4: degenerate evidence shapes across all EM methods."""

    @pytest.mark.parametrize("backend", EM_BACKENDS)
    @pytest.mark.parametrize("method", sorted(EM_FACTORIES))
    def test_single_label_evidence(self, method, backend):
        evidence = _manual(
            {f"t{i}": [("w1", "only"), ("w2", "only"), ("w3", "only")] for i in range(4)}
        )
        result = EM_FACTORIES[method](backend).infer(evidence)
        assert all(v == "only" for v in result.truths.values())
        for post in result.posteriors.values():
            assert sum(post.values()) == pytest.approx(1.0)
        assert all(c == pytest.approx(1.0) for c in result.confidences.values())

    def test_single_label_evidence_bayes(self):
        evidence = _manual({"t1": [("w1", "only")], "t2": [("w1", "only")]})
        result = BayesianVote().infer(evidence)
        assert result.truths == {"t1": "only", "t2": "only"}

    @pytest.mark.parametrize("backend", EM_BACKENDS)
    @pytest.mark.parametrize("method", sorted(EM_FACTORIES))
    def test_one_worker_answers_everything(self, method, backend):
        evidence = _manual(
            {f"t{i}": [("solo", "a" if i % 2 else "b")] for i in range(10)}
        )
        result = EM_FACTORIES[method](backend).infer(evidence)
        for i in range(10):
            assert result.truths[f"t{i}"] == ("a" if i % 2 else "b")
        assert 0.0 <= result.worker_quality["solo"] <= 1.0
        for post in result.posteriors.values():
            assert sum(post.values()) == pytest.approx(1.0)

    @pytest.mark.parametrize("backend", EM_BACKENDS)
    @pytest.mark.parametrize("method", sorted(EM_FACTORIES))
    def test_single_candidate_task_among_contested(self, method, backend):
        """A task whose candidate set is one label (the k = max(2, .)
        guard) coexisting with a contested task."""
        evidence = _manual(
            {
                "easy": [("w1", "a"), ("w2", "a"), ("w3", "a")],
                "hard": [("w1", "a"), ("w2", "b"), ("w3", "b")],
            }
        )
        result = EM_FACTORIES[method](backend).infer(evidence)
        assert result.truths["easy"] == "a"
        assert result.truths["hard"] == "b"
        for post in result.posteriors.values():
            assert sum(post.values()) == pytest.approx(1.0)


class TestResultFieldsAndCheckpoint:
    """Satellite 3: task_difficulty / spam_distributions are declared
    InferenceResult fields that survive copies and checkpoint export."""

    def test_fields_survive_dataclass_copy(self):
        answers = _evidence(seed=9, n_tasks=30, redundancy=3)
        glad = Glad(max_iterations=5).infer(answers)
        mace = Mace(max_iterations=5).infer(answers)
        assert glad.task_difficulty and not glad.spam_distributions
        assert mace.spam_distributions and not mace.task_difficulty
        # dataclasses.replace / asdict no longer drop them.
        assert dataclasses.replace(glad).task_difficulty == glad.task_difficulty
        assert (
            dataclasses.asdict(mace)["spam_distributions"] == mace.spam_distributions
        )

    def test_default_fields_empty_dicts(self):
        from repro.quality.truth import InferenceResult

        result = InferenceResult(truths={"t": "a"})
        assert result.task_difficulty == {}
        assert result.spam_distributions == {}

    @pytest.mark.parametrize("algo_cls", [Mace, Glad])
    def test_em_state_checkpoint_round_trip(self, algo_cls, tmp_path):
        pool = WorkerPool.heterogeneous(8, seed=1)
        platform = SimulatedPlatform(pool, seed=2)
        tasks = make_choice_tasks(30, seed=3)
        answers = platform.collect(tasks, redundancy=3)
        algo = algo_cls(max_iterations=5)
        algo.infer(answers)
        exported = algo.export_state()
        assert exported  # EM methods must export warm-start state

        ck = Checkpoint.capture(platform, inference=algo)
        ck.save(tmp_path)
        loaded = Checkpoint.load(tmp_path)

        fresh_pool = WorkerPool.heterogeneous(8, seed=1)
        fresh_platform = SimulatedPlatform(fresh_pool, seed=2)
        fresh = algo_cls(max_iterations=5)
        loaded.restore(fresh_platform, inference=fresh)
        # The JSON round trip preserves every exported parameter exactly.
        assert loaded.state["inference"] == exported
        # Warm starting changes initialization only — the restored instance
        # must still run and produce normalized posteriors.
        warm = fresh.infer(answers)
        assert warm.truths.keys() == {t.task_id for t in tasks}
        for post in warm.posteriors.values():
            assert sum(post.values()) == pytest.approx(1.0)

    def test_glad_difficulty_round_trips_through_json(self):
        answers = _evidence(seed=9, n_tasks=20, redundancy=3)
        algo = Glad(max_iterations=5)
        result = algo.infer(answers)
        state = json.loads(json.dumps(algo.export_state()))
        assert state["task_difficulty"] == pytest.approx(result.task_difficulty)
        fresh = Glad(max_iterations=5)
        fresh.warm_start(state)
        rerun = fresh.infer(answers)
        assert rerun.truths == result.truths


class TestObservabilityContract:
    @pytest.mark.parametrize("method", sorted(EM_FACTORIES))
    def test_kernel_emits_em_span_and_iterations(self, method):
        sink = MemorySink()
        tracer = Tracer(sink)
        algo = EM_FACTORIES[method]("kernel")
        algo.tracer = tracer
        with tracer.span("root"):
            algo.infer(_evidence(seed=5, n_tasks=20))
        names = [s["name"] for s in sink.spans]
        truth_spans = [s for s in sink.spans if s["name"].startswith("truth.")]
        assert truth_spans, names
        span = truth_spans[0]
        assert span["tags"]["iterations"] >= 1
        assert "converged" in span["tags"]
        iters = [s for s in sink.spans if s["name"] == "em.iteration"]
        assert iters and all(s["parent_id"] == span["span_id"] for s in iters)
