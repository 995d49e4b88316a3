"""Unit tests for repro.quality.truth — all categorical algorithms."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import InferenceError
from repro.platform.platform import SimulatedPlatform
from repro.platform.task import Answer
from repro.quality.truth import (
    CATEGORICAL_METHODS,
    BayesianVote,
    DawidSkene,
    Glad,
    Mace,
    MajorityVote,
    WeightedMajorityVote,
    ZenCrowd,
    label_space,
    votes_by_task,
    worker_answer_index,
)
from repro.workers.pool import WorkerPool

from conftest import make_choice_tasks


def _evidence(n_tasks=80, pool=None, redundancy=5, seed=7, labels=("a", "b", "c")):
    pool = pool or WorkerPool.heterogeneous(20, seed=seed)
    platform = SimulatedPlatform(pool, seed=seed + 1)
    tasks = make_choice_tasks(n_tasks, labels=labels, seed=seed)
    answers = platform.collect(tasks, redundancy=redundancy)
    truth = {t.task_id: t.truth for t in tasks}
    return answers, truth


def _manual(votes):
    """Build evidence dict from {task: [(worker, value), ...]}."""
    return {
        task_id: [Answer(task_id=task_id, worker_id=w, value=v) for w, v in pairs]
        for task_id, pairs in votes.items()
    }


class TestValidation:
    @pytest.mark.parametrize("method", sorted(CATEGORICAL_METHODS))
    def test_empty_evidence_rejected(self, method):
        with pytest.raises(InferenceError):
            CATEGORICAL_METHODS[method]().infer({})

    def test_empty_answer_list_rejected(self):
        with pytest.raises(InferenceError):
            MajorityVote().infer({"t1": []})

    def test_misfiled_answer_rejected(self):
        evidence = {"t1": [Answer(task_id="t2", worker_id="w", value="a")]}
        with pytest.raises(InferenceError):
            MajorityVote().infer(evidence)

    def test_accuracy_requires_overlap(self):
        result = MajorityVote().infer(_manual({"t1": [("w1", "a")]}))
        with pytest.raises(InferenceError):
            result.accuracy_against({"other": "a"})


_WORKERS = ("w1", "w2", "w3", "w4", "w5")
_LABELS = ("a", "b", "c", "d")

#: One task's votes: up to five workers, each answering once, any label.
_votes = st.lists(
    st.tuples(st.sampled_from(_WORKERS), st.sampled_from(_LABELS)),
    max_size=5,
    unique_by=lambda vote: vote[0],
)


class TestInferEach:
    """``infer_each`` decides each answered task as one ``infer`` call on
    that task alone would, for every categorical method."""

    @pytest.mark.parametrize("method", sorted(CATEGORICAL_METHODS))
    @settings(max_examples=40, deadline=None)
    @given(per_task=st.lists(_votes, max_size=5))
    @example(per_task=[[("w1", "b"), ("w2", "a")]])  # a tie
    @example(per_task=[[("w1", "a"), ("w2", "b"), ("w3", "c"), ("w4", "d")]])  # four labels
    @example(per_task=[[("w1", "c")], [], [("w1", "a"), ("w2", "a"), ("w3", "b")]])
    def test_equals_one_infer_per_answered_task(self, method, per_task):
        evidence = _manual({f"t{i}": votes for i, votes in enumerate(per_task)})
        inference = CATEGORICAL_METHODS[method]()
        expected = [
            (task_id, inference.infer({task_id: answers}).truths[task_id])
            for task_id, answers in evidence.items()
            if answers
        ]
        assert list(inference.infer_each(evidence).items()) == expected

    @pytest.mark.parametrize("method", sorted(CATEGORICAL_METHODS))
    def test_misfiled_answer_raises_what_infer_raises(self, method):
        good = _manual({"t1": [("w1", "a")]})
        misfiled = [Answer(task_id="t9", worker_id="w2", value="b")]
        inference = CATEGORICAL_METHODS[method]()
        with pytest.raises(InferenceError) as per_task:
            inference.infer({"t2": misfiled})
        with pytest.raises(InferenceError) as per_run:
            inference.infer_each({**good, "t2": misfiled})
        assert str(per_run.value) == str(per_task.value)

    def test_majority_vote_builds_no_inference_result(self, monkeypatch):
        """Majority vote tallies in one pass instead of calling ``infer``."""
        def refuse(self, answers_by_task):
            raise AssertionError("infer_each called infer")

        monkeypatch.setattr(MajorityVote, "infer", refuse)
        evidence = _manual({"t1": [("w1", "b"), ("w2", "a"), ("w3", "b")], "t2": []})
        assert MajorityVote().infer_each(evidence) == {"t1": "b"}


class TestHelpers:
    def test_label_space_sorted_union(self):
        evidence = _manual({"t1": [("w1", "b"), ("w2", "a")], "t2": [("w1", "c")]})
        assert label_space(evidence) == ["a", "b", "c"]

    def test_votes_by_task(self):
        evidence = _manual({"t1": [("w1", "a"), ("w2", "a"), ("w3", "b")]})
        assert votes_by_task(evidence)["t1"] == {"a": 2, "b": 1}

    def test_worker_answer_index(self):
        evidence = _manual({"t1": [("w1", "a")], "t2": [("w1", "b")]})
        assert worker_answer_index(evidence)["w1"] == [("t1", "a"), ("t2", "b")]


class TestMajorityVote:
    def test_clear_majority(self):
        evidence = _manual({"t1": [("w1", "x"), ("w2", "x"), ("w3", "y")]})
        result = MajorityVote().infer(evidence)
        assert result.truths["t1"] == "x"
        assert result.confidences["t1"] == pytest.approx(2 / 3)

    def test_tie_breaks_deterministically(self):
        evidence = _manual({"t1": [("w1", "b"), ("w2", "a")]})
        result = MajorityVote().infer(evidence)
        assert result.truths["t1"] == "a"  # smallest repr among tied

    def test_worker_quality_is_agreement(self):
        evidence = _manual(
            {
                "t1": [("good", "x"), ("good2", "x"), ("bad", "y")],
                "t2": [("good", "z"), ("good2", "z"), ("bad", "w")],
            }
        )
        result = MajorityVote().infer(evidence)
        assert result.worker_quality["good"] == pytest.approx(1.0)
        assert result.worker_quality["bad"] == pytest.approx(0.0)

    def test_posteriors_normalized(self):
        evidence = _manual({"t1": [("w1", "a"), ("w2", "b"), ("w3", "b")]})
        post = MajorityVote().infer(evidence).posteriors["t1"]
        assert sum(post.values()) == pytest.approx(1.0)

    def test_reasonable_accuracy(self):
        answers, truth = _evidence()
        accuracy = MajorityVote().infer(answers).accuracy_against(truth)
        assert accuracy > 0.8


class TestWeightedMajorityVote:
    def test_explicit_weights_override(self):
        evidence = _manual({"t1": [("expert", "x"), ("novice", "y"), ("novice2", "y")]})
        result = WeightedMajorityVote(
            worker_weights={"expert": 0.99, "novice": 0.2, "novice2": 0.2}
        ).infer(evidence)
        assert result.truths["t1"] == "x"

    def test_auto_weights_match_mv_on_unanimity(self):
        evidence = _manual({"t1": [("w1", "x"), ("w2", "x")]})
        assert WeightedMajorityVote().infer(evidence).truths["t1"] == "x"

    def test_weight_floor_applies(self):
        evidence = _manual({"t1": [("zero", "x")]})
        result = WeightedMajorityVote(worker_weights={"zero": 0.0}).infer(evidence)
        assert result.truths["t1"] == "x"  # floored weight still counts

    def test_beats_mv_with_spammers(self):
        pool = WorkerPool.with_spammers(24, spammer_fraction=0.34, seed=3)
        answers, truth = _evidence(n_tasks=150, pool=pool, redundancy=7, seed=3)
        mv = MajorityVote().infer(answers).accuracy_against(truth)
        wmv = WeightedMajorityVote().infer(answers).accuracy_against(truth)
        assert wmv >= mv


class TestEMFamily:
    @pytest.mark.parametrize("algo_cls", [DawidSkene, ZenCrowd, Glad, BayesianVote])
    def test_unanimous_evidence(self, algo_cls):
        evidence = _manual(
            {
                "t1": [("w1", "a"), ("w2", "a"), ("w3", "a")],
                "t2": [("w1", "b"), ("w2", "b"), ("w3", "b")],
            }
        )
        result = algo_cls().infer(evidence)
        assert result.truths == {"t1": "a", "t2": "b"}

    @pytest.mark.parametrize("algo_cls", [DawidSkene, ZenCrowd, BayesianVote])
    def test_beats_mv_with_spammers(self, algo_cls):
        pool = WorkerPool.with_spammers(20, spammer_fraction=0.35, seed=9)
        answers, truth = _evidence(n_tasks=200, pool=pool, redundancy=7, seed=9)
        mv = MajorityVote().infer(answers).accuracy_against(truth)
        em = algo_cls().infer(answers).accuracy_against(truth)
        assert em >= mv - 0.02  # never meaningfully worse; usually better

    def test_ds_converges(self):
        answers, _ = _evidence(n_tasks=50, redundancy=5)
        result = DawidSkene(max_iterations=200).infer(answers)
        assert result.converged
        assert 1 <= result.iterations <= 200

    def test_ds_worker_quality_separates_spammers(self):
        pool = WorkerPool.with_spammers(10, spammer_fraction=0.3, good_accuracy=0.95, seed=4)
        spammer_ids = {
            w.worker_id for w in pool if type(w.model).__name__ == "SpammerModel"
        }
        answers, _ = _evidence(n_tasks=200, pool=pool, redundancy=6, seed=4)
        quality = DawidSkene().infer(answers).worker_quality
        spam_quality = np.mean([quality[w] for w in spammer_ids if w in quality])
        good_quality = np.mean([q for w, q in quality.items() if w not in spammer_ids])
        assert good_quality > spam_quality + 0.1

    def test_zencrowd_reliability_in_unit_interval(self):
        answers, _ = _evidence(n_tasks=40)
        quality = ZenCrowd().infer(answers).worker_quality
        assert all(0.0 <= q <= 1.0 for q in quality.values())

    @pytest.mark.parametrize("backend", ["kernel", "legacy"])
    def test_zencrowd_smoothing_is_beta22_posterior_mean(self, backend):
        """Reliability smoothing is (mass+1)/(count+2) — the Beta(2,2)
        (add-one / Laplace) posterior mean, the same form MACE uses for
        competence. One unanimous answer per worker pins it at exactly
        (1+1)/(1+2) = 2/3."""
        evidence = _manual({"t1": [("w1", "a"), ("w2", "a")]})
        result = ZenCrowd(backend=backend).infer(evidence)
        assert result.worker_quality["w1"] == pytest.approx(2 / 3)
        assert result.worker_quality["w2"] == pytest.approx(2 / 3)

    def test_zencrowd_handles_heterogeneous_label_sets(self):
        evidence = _manual(
            {
                "t1": [("w1", "x"), ("w2", "x")],
                "t2": [("w1", "p"), ("w2", "q"), ("w3", "p")],
            }
        )
        result = ZenCrowd().infer(evidence)
        assert result.truths["t1"] == "x"
        assert result.truths["t2"] == "p"

    def test_glad_learns_difficulty(self):
        pool = WorkerPool.glad_spectrum(15, seed=6)
        platform = SimulatedPlatform(pool, seed=7)
        easy = make_choice_tasks(30, seed=1, difficulty=0.05)
        hard = make_choice_tasks(30, seed=2, difficulty=0.85)
        answers = platform.collect(easy + hard, redundancy=5)
        result = Glad(max_iterations=15).infer(answers)
        difficulty = result.task_difficulty
        easy_mean = np.mean([difficulty[t.task_id] for t in easy])
        hard_mean = np.mean([difficulty[t.task_id] for t in hard])
        assert hard_mean > easy_mean

    def test_bayes_prior_regularizes_single_answer(self):
        evidence = _manual({"t1": [("w1", "a")]})
        result = BayesianVote().infer(evidence)
        assert result.truths["t1"] == "a"
        # One answer cannot produce certainty under a Beta prior.
        assert result.worker_quality["w1"] < 0.95

    def test_invalid_configs_rejected(self):
        with pytest.raises(InferenceError):
            DawidSkene(max_iterations=0)
        with pytest.raises(InferenceError):
            ZenCrowd(prior_reliability=1.5)
        with pytest.raises(InferenceError):
            Glad(max_iterations=0)
        with pytest.raises(InferenceError):
            BayesianVote(prior_alpha=-1)
        with pytest.raises(InferenceError):
            ZenCrowd(max_iterations=0)

    @pytest.mark.parametrize("smoothing", [-0.5, float("nan"), float("inf")])
    @pytest.mark.parametrize("method", [DawidSkene, Mace])
    def test_poisoning_smoothing_rejected(self, method, smoothing):
        # Such a pseudo-count makes every posterior NaN, and every task
        # then takes the first label.
        with pytest.raises(InferenceError, match="smoothing"):
            method(smoothing=smoothing)

    def test_dawid_skene_needs_a_positive_smoothing(self):
        # w2 puts no mass on truth "b", so unsmoothed its row is 0/0.
        evidence = _manual({"t1": [("w1", "a"), ("w2", "a")], "t2": [("w1", "b")]})
        with pytest.raises(InferenceError, match="smoothing"):
            DawidSkene(smoothing=0.0)
        assert DawidSkene(smoothing=1e-6).infer(evidence).truths == {"t1": "a", "t2": "b"}
        assert Mace(smoothing=0.0).infer(evidence).truths == {"t1": "a", "t2": "b"}

    @pytest.mark.parametrize("method", sorted(CATEGORICAL_METHODS))
    def test_posteriors_are_distributions(self, method):
        answers, _ = _evidence(n_tasks=20, redundancy=3)
        result = CATEGORICAL_METHODS[method]().infer(answers)
        for post in result.posteriors.values():
            assert sum(post.values()) == pytest.approx(1.0, abs=1e-6)
            assert all(p >= 0 for p in post.values())

    @pytest.mark.parametrize("method", sorted(CATEGORICAL_METHODS))
    def test_truth_always_among_answered_labels(self, method):
        answers, _ = _evidence(n_tasks=25, redundancy=3)
        result = CATEGORICAL_METHODS[method]().infer(answers)
        for task_id, inferred in result.truths.items():
            answered = {a.value for a in answers[task_id]}
            assert inferred in answered or inferred in label_space(answers)
