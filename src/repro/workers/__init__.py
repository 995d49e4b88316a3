"""Simulated worker substrate: answer models, workers, pools."""

from repro import _lazy

__all__, __getattr__, __dir__ = _lazy.exports(
    __name__,
    {
        "models": (
            "AnswerModel", "BiasedModel", "CollectorModel", "ComparisonNoiseModel",
            "ConfusionMatrixModel", "DiverseSkillsModel", "GladModel", "OneCoinModel",
            "SpammerModel",
        ),
        "pool": ("WorkerPool", "true_accuracy"),
        "worker": ("LatencyModel", "Worker"),
    },
)
