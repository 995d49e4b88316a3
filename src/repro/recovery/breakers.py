"""Circuit breakers: stop buying answers before the run hits a wall.

A breaker is consulted at every batch boundary (the only place a crowd
run can cheaply stop). When one opens, the scheduler does not dispatch
further batches; under a non-``fail`` policy the remaining tasks become
explicit failures in the :class:`~repro.recovery.degrade.CoverageReport`
instead of an exception deep inside an operator.

Breakers are deliberately simple threshold monitors — the value of the
pattern is *where* they sit (between batches, before money is spent), not
sophistication of the trip condition.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.platform.batch import BatchScheduler
    from repro.platform.platform import SimulatedPlatform


class CircuitBreaker:
    """Base: check() returns a trip reason string, or None to proceed."""

    name = "breaker"

    def __init__(self) -> None:
        self.tripped: str | None = None

    def check(
        self, platform: "SimulatedPlatform", scheduler: "BatchScheduler"
    ) -> str | None:
        """Trip reason when the next batch must not be dispatched."""
        raise NotImplementedError

    def reset(self) -> None:
        """Close the breaker again (e.g. after a budget top-up)."""
        self.tripped = None


class BudgetBreaker(CircuitBreaker):
    """Open when remaining budget sinks to *reserve* (absolute currency).

    Keeping a reserve matters because a batch is paid as a unit: tripping
    at zero would already have overdrafted mid-batch.
    """

    name = "breaker:budget"

    def __init__(self, reserve: float):
        super().__init__()
        if reserve < 0:
            raise ConfigurationError(f"budget reserve must be >= 0, got {reserve}")
        self.reserve = reserve

    def check(
        self, platform: "SimulatedPlatform", scheduler: "BatchScheduler"
    ) -> str | None:
        remaining = platform.remaining_budget
        if remaining <= self.reserve:
            self.tripped = (
                f"remaining budget {remaining:.4f} <= reserve {self.reserve:.4f}"
            )
            return self.tripped
        return None


class DeadlineBreaker(CircuitBreaker):
    """Open when the scheduler's simulated clock passes *deadline* seconds."""

    name = "breaker:deadline"

    def __init__(self, deadline: float):
        super().__init__()
        if deadline <= 0:
            raise ConfigurationError(f"deadline must be > 0, got {deadline}")
        self.deadline = deadline

    def check(
        self, platform: "SimulatedPlatform", scheduler: "BatchScheduler"
    ) -> str | None:
        if scheduler.simulated_clock >= self.deadline:
            self.tripped = (
                f"simulated clock {scheduler.simulated_clock:.1f}s "
                f">= deadline {self.deadline:.1f}s"
            )
            return self.tripped
        return None
