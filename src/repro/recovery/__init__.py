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

from repro import _lazy

__all__, __getattr__, __dir__ = _lazy.exports(
    __name__,
    {
        "breakers": ("BudgetBreaker", "CircuitBreaker", "DeadlineBreaker"),
        "checkpoint": ("Checkpoint",),
        "degrade": ("CoverageReport", "DegradedResult", "FailureInfo", "FailurePolicy"),
        "runner": ("CheckpointingRunner", "RunOutcome"),
    },
)
