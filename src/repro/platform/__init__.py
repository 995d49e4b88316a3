"""Simulated crowdsourcing platform: tasks, HITs, events, pricing, market."""

from repro import _lazy

__all__, __getattr__, __dir__ = _lazy.exports(
    __name__,
    {
        "batch": ("BatchConfig", "BatchRecord", "BatchRunResult", "BatchScheduler"),
        "cache": (
            "AnswerCache", "CachedAnswer", "CacheEntry", "CacheResolution", "signature_of",
            "task_signature",
        ),
        "events": ("Event", "EventSimulator"),
        "platform": ("PlatformStats", "SimulatedPlatform", "TimelineResult"),
        "pricing": ("PriceResponseModel", "PricingPolicy"),
        "streams": (),
        "task": (
            "HIT", "Answer", "Task", "TaskState", "TaskType", "collect", "compare", "fill",
            "multi_choice", "numeric", "rate", "single_choice",
        ),
    },
)
