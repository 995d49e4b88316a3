"""Truth inference algorithms (quality control, inference side)."""

from repro import _lazy

__all__, __getattr__, __dir__ = _lazy.exports(
    __name__,
    {
        "base": (
            "EM_BACKENDS", "InferenceResult", "SparseObservations", "TruthInference",
            "answers_from_platform", "encode_observations", "label_space", "votes_by_task",
            "worker_answer_index",
        ),
        "bayesian": ("BayesianVote",),
        "dawid_skene": ("DawidSkene",),
        "glad": ("Glad",),
        "mace": ("Mace",),
        "majority": ("MajorityVote", "WeightedMajorityVote"),
        "multilabel": ("MultiLabelVote", "set_f1"),
        "numeric": ("CatdAggregator", "MeanAggregator", "MedianAggregator"),
        "registry": ("CATEGORICAL_METHODS", "NUMERIC_METHODS"),
        "zencrowd": ("ZenCrowd",),
    },
)
