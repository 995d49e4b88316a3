"""Latency control: round model, statistical model, mitigation."""

from repro import _lazy

__all__, __getattr__, __dir__ = _lazy.exports(
    __name__,
    {
        "mitigation": (
            "MitigationResult", "RetainerPool", "run_baseline", "run_with_replication",
            "run_with_straggler_rescue",
        ),
        "rounds": ("RoundOutcome", "RoundRecord", "RoundScheduler", "rounds_lower_bound"),
        "statistical": (
            "CompletionModel", "fit_completion_model", "predict_speedup_from_reward",
            "straggler_threshold",
        ),
    },
)
