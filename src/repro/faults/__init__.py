"""Fault injection for the simulated crowd platform (repro.faults).

Declarative, seed-deterministic fault plans (:mod:`repro.faults.plan`)
applied at the platform/batch seams by a stateless injector
(:mod:`repro.faults.injector`), plus a chaos harness
(:mod:`repro.faults.chaos`) that runs pipelines under randomized plans
and asserts survival + accounting coherence.
"""

from repro import _lazy

__all__, __getattr__, __dir__ = _lazy.exports(
    __name__,
    {
        "chaos": ("ChaosReport", "chaos_suite", "run_chaos", "verify_kill_resume"),
        "injector": ("FaultInjector",),
        "plan": (
            "BudgetShock", "DeliveryFaults", "FaultPlan", "OutageWindow", "StragglerSpikes",
            "WorkerChurn", "random_plan", "straggler_spike_plan",
        ),
    },
)
