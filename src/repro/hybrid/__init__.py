"""Hybrid human/machine pipelines: classifier + crowd-in-the-loop labeling."""

from repro import _lazy

__all__, __getattr__, __dir__ = _lazy.exports(
    __name__,
    {
        "active": ("ActiveLearner", "ActiveLearningResult"),
        "naive_bayes": ("NaiveBayesText",),
    },
)
