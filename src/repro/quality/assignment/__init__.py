"""Online task assignment strategies."""

from repro import _lazy

__all__, __getattr__, __dir__ = _lazy.exports(
    __name__,
    {
        "base": ("AssignmentOutcome", "AssignmentStrategy", "run_assignment"),
        "baseline": ("RandomAssignment", "RoundRobinAssignment"),
        "cdas": ("Cdas",),
        "domain": ("DomainAwareAssignment",),
        "qasca": ("Qasca",),
    },
)
