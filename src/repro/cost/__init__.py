"""Cost control: pruning, selection, deduction, sampling, task design."""

from repro import _lazy

__all__, __getattr__, __dir__ = _lazy.exports(
    __name__,
    {
        "deduction": ("ComparisonDeducer", "TransitiveResolver", "resolve_pairs"),
        "pruning": ("CandidatePair", "PruningReport", "SimilarityPruner", "pruning_recall"),
        "sampling": (
            "Estimate", "estimate_count", "estimate_mean", "estimate_proportion",
            "required_sample_size", "sample_indices", "stratified_estimate",
        ),
        "selection": (
            "SELECTORS", "ExpectedErrorReductionSelector", "MarginSelector", "TaskSelector",
            "UncertaintySelector", "entropy", "margin",
        ),
        "similarity": (
            "SIMILARITY_FUNCTIONS", "cosine_tokens", "edit_distance", "edit_similarity",
            "jaccard_ngrams", "jaccard_tokens", "ngrams", "tokenize",
        ),
        "taskdesign": (
            "BatchingPlan", "FatigueModel", "batch_tasks", "best_batch_size", "plan_batching",
        ),
    },
)
