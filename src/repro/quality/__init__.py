"""Quality control: truth inference, task assignment, worker management."""

from repro import _lazy

__all__, __getattr__, __dir__ = _lazy.exports(
    __name__,
    {
        "assignment": (
            "AssignmentOutcome", "Cdas", "Qasca", "RandomAssignment", "RoundRobinAssignment",
            "run_assignment",
        ),
        "truth": (
            "CATEGORICAL_METHODS", "NUMERIC_METHODS", "BayesianVote", "CatdAggregator",
            "DawidSkene", "Glad", "InferenceResult", "Mace", "MajorityVote", "MeanAggregator",
            "MedianAggregator", "TruthInference", "WeightedMajorityVote", "ZenCrowd",
        ),
        "workerqc": (
            "GoldInjector", "eliminate_spammers", "pool_accuracy_report", "qualification_test",
        ),
    },
    public=("assignment", "truth", "workerqc"),
)
