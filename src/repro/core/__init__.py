"""Engine facade, configuration, and requester job management."""

from repro import _lazy

__all__, __getattr__, __dir__ = _lazy.exports(
    __name__,
    {
        "config": ("EngineConfig",),
        "engine": ("CrowdEngine",),
        "requester": ("JobReport", "Requester"),
    },
)
