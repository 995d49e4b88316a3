"""Experiment harness: datasets, metrics, runners, report rendering."""

from repro import _lazy

__all__, __getattr__, __dir__ = _lazy.exports(
    __name__,
    {
        "calibration": (
            "ReliabilityBin", "expected_calibration_error", "overconfidence", "reliability_bins",
        ),
        "datasets": (
            "CountingDataset", "EntityResolutionDataset", "FillDataset", "LabelingDataset",
            "RankingDataset", "collection_universe", "counting_dataset", "er_dataset",
            "fill_dataset", "labeling_dataset", "ranking_dataset",
        ),
        "harness": ("ExperimentResult", "PoolSpec", "TrialResult", "make_platform", "run_trials"),
        "metrics": (
            "accuracy", "kendall_tau", "mean", "precision_at_k", "precision_recall_f1",
            "relative_error",
        ),
        "report": ("format_series", "format_table", "print_series", "print_table"),
    },
)
