"""Recovery machinery: graceful degradation and checkpoint/resume.

* :mod:`repro.recovery.degrade` — failure policies, coverage accounting,
  and :class:`DegradedResult` (partial answers with explicit uncertainty).
* :mod:`repro.recovery.breakers` — budget/deadline circuit breakers
  checked at batch boundaries; an open breaker stops the run and changes
  nothing else about it.
* :mod:`repro.recovery.checkpoint` — snapshot/restore of engine,
  platform, scheduler, and EM state.
* :mod:`repro.recovery.runner` — checkpoint-at-batch-boundary runner and
  the kill-and-resume harness.
"""

from repro.recovery.breakers import BudgetBreaker, CircuitBreaker, DeadlineBreaker
from repro.recovery.checkpoint import Checkpoint
from repro.recovery.degrade import (
    CoverageReport,
    DegradedResult,
    FailureInfo,
    FailurePolicy,
)
from repro.recovery.runner import CheckpointingRunner, RunOutcome

__all__ = [
    "BudgetBreaker",
    "Checkpoint",
    "CheckpointingRunner",
    "CircuitBreaker",
    "CoverageReport",
    "DeadlineBreaker",
    "DegradedResult",
    "FailureInfo",
    "FailurePolicy",
    "RunOutcome",
]
