"""Unit tests for the hybrid human/machine layer (NB + active learning)."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.datasets import text_classification_dataset
from repro.hybrid import ActiveLearner, NaiveBayesText
from repro.platform.batch import BatchConfig
from repro.platform.platform import SimulatedPlatform
from repro.workers.pool import WorkerPool


class TestNaiveBayes:
    CORPUS = [
        ("goal match striker penalty", "sports"),
        ("striker goal referee", "sports"),
        ("stock market shares dividend", "finance"),
        ("market dividend bond", "finance"),
    ]

    def _model(self):
        docs, labels = zip(*self.CORPUS)
        return NaiveBayesText().fit(list(docs), list(labels))

    def test_alpha_validated(self):
        with pytest.raises(ConfigurationError):
            NaiveBayesText(alpha=0)

    def test_fit_requires_alignment(self):
        with pytest.raises(ConfigurationError):
            NaiveBayesText().fit(["a"], ["x", "y"])

    def test_predict_unseen_before_training(self):
        with pytest.raises(ConfigurationError):
            NaiveBayesText().predict("anything")

    def test_classifies_obvious_documents(self):
        model = self._model()
        assert model.predict("penalty goal") == "sports"
        assert model.predict("shares bond market") == "finance"

    def test_proba_normalized(self):
        proba = self._model().predict_proba("goal dividend")
        assert sum(proba.values()) == pytest.approx(1.0)
        assert set(proba) == {"sports", "finance"}

    def test_margin_reflects_confidence(self):
        model = self._model()
        confident = model.margin("goal goal striker penalty referee")
        torn = model.margin("goal dividend")
        assert confident > torn

    def test_unknown_tokens_fall_back_to_prior(self):
        model = self._model()
        proba = model.predict_proba("zzz qqq www")
        # Balanced corpus -> near-uniform posterior on unknown text.
        assert abs(proba["sports"] - 0.5) < 0.05

    def test_partial_fit_shifts_prediction(self):
        model = self._model()
        for _ in range(5):
            model.partial_fit("quiche oven flour", "cooking")
        assert model.predict("oven flour") == "cooking"
        assert "cooking" in model.classes

    def test_accuracy_helper(self):
        model = self._model()
        docs, labels = zip(*self.CORPUS)
        assert model.accuracy(list(docs), list(labels)) == 1.0
        with pytest.raises(ConfigurationError):
            model.accuracy([], [])


class TestTextDataset:
    def test_shapes_and_balance(self):
        ds = text_classification_dataset(90, heldout=30, seed=1)
        assert len(ds.documents) == 90
        assert len(ds.heldout_documents) == 30
        counts = {c: ds.labels.count(c) for c in ds.classes}
        assert max(counts.values()) - min(counts.values()) <= 1

    def test_signal_validated(self):
        with pytest.raises(ConfigurationError):
            text_classification_dataset(10, signal_strength=2.0)

    def test_high_signal_is_learnable(self):
        ds = text_classification_dataset(120, signal_strength=0.8, seed=2)
        model = NaiveBayesText().fit(ds.documents, ds.labels)
        assert model.accuracy(ds.heldout_documents, ds.heldout_labels) > 0.9

    def test_reproducible(self):
        a = text_classification_dataset(30, seed=3)
        b = text_classification_dataset(30, seed=3)
        assert a.documents == b.documents


class TestActiveLearner:
    def _setup(self, selection, seed=5, signal=0.5, n=150):
        ds = text_classification_dataset(n, signal_strength=signal, seed=seed)
        truth = dict(zip(ds.documents, ds.labels))
        platform = SimulatedPlatform(WorkerPool.uniform(15, 0.92, seed=seed + 1), seed=seed + 2)
        learner = ActiveLearner(
            platform, ds.classes, truth_fn=truth.get,
            selection=selection, batch_size=10, seed=seed + 3,
        )
        return ds, learner

    def test_config_validated(self):
        ds, learner = self._setup("random")
        with pytest.raises(ConfigurationError):
            ActiveLearner(learner.platform, ("one",), truth_fn=lambda d: "one")
        with pytest.raises(ConfigurationError):
            ActiveLearner(learner.platform, ("a", "b"), truth_fn=None, selection="magic")
        with pytest.raises(ConfigurationError):
            learner.run(ds.documents, label_budget=0)

    def test_budget_respected(self):
        ds, learner = self._setup("uncertainty")
        result = learner.run(ds.documents, label_budget=30)
        assert len(result.crowd_labels) == 30
        assert result.crowd_questions == 90  # 30 items x redundancy 3
        assert result.cost == pytest.approx(0.9)

    def test_final_labels_cover_everything(self):
        ds, learner = self._setup("uncertainty")
        result = learner.run(ds.documents, label_budget=25)
        assert len(result.final_labels) == len(ds.documents)
        assert all(label in ds.classes for label in result.final_labels)

    def test_crowd_labels_used_verbatim(self):
        ds, learner = self._setup("random")
        result = learner.run(ds.documents, label_budget=20)
        for i, label in result.crowd_labels.items():
            assert result.final_labels[i] == label

    def test_trajectory_recorded(self):
        ds, learner = self._setup("uncertainty")
        result = learner.run(
            ds.documents, label_budget=30,
            heldout=(ds.heldout_documents, ds.heldout_labels),
        )
        assert [n for n, _acc in result.trajectory] == [10, 20, 30]
        # Learning curves trend upward overall.
        assert result.trajectory[-1][1] >= result.trajectory[0][1] - 0.1

    def test_hybrid_beats_crowd_only_at_equal_budget(self):
        ds, learner = self._setup("uncertainty", seed=9, signal=0.6, n=240)
        result = learner.run(ds.documents, label_budget=40)
        hybrid_accuracy = result.accuracy_against(ds.labels)
        # Crowd-only: the 40 crowd labels are right, the remaining 200
        # items get the best constant guess (majority class).
        crowd_only = (40 * 1.0 + 200 * (1 / 3)) / 240
        assert hybrid_accuracy > crowd_only + 0.15

    def test_budget_larger_than_dataset_labels_everything(self):
        ds, learner = self._setup("random", n=30)
        result = learner.run(ds.documents, label_budget=999)
        assert len(result.crowd_labels) == 30

    @pytest.mark.parametrize("policy", ["skip", "degrade"])
    def test_items_without_answers_stay_unlabelled(self, policy):
        ds, learner = self._setup("uncertainty", n=40)
        learner.platform.attach_scheduler(
            BatchConfig(abandon_rate=1.0, retry_limit=0, failure_policy=policy)
        )
        result = learner.run(
            ds.documents, label_budget=20,
            heldout=(ds.heldout_documents, ds.heldout_labels),
        )
        assert result.crowd_labels == {}
        assert result.final_labels == [None] * 40
        assert result.trajectory == []
        assert result.cost == 0.0
        assert learner.platform.stats.assignments_abandoned > 0
