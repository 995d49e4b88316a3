"""crowddm: crowdsourced data management on a simulated crowd platform.

A from-scratch reproduction of the system landscape surveyed in
*Crowdsourced Data Management: Overview and Challenges* (SIGMOD 2017):
quality control (truth inference, task assignment, worker management),
cost control (pruning, deduction, sampling, task design), latency control
(rounds, statistical models, mitigation), the crowd-powered operators
(filter/join/sort/top-k/count/collect/fill/categorize), and a CrowdSQL
declarative layer — all runnable against simulated workers.

Quickstart::

    from repro import CrowdEngine, EngineConfig

    engine = CrowdEngine(EngineConfig(seed=7, redundancy=5, inference="ds"))
    result = engine.filter(photos, "Does this show a mountain?", truth_fn)
"""

from repro import _lazy

__version__ = "1.0.0"

__all__, __getattr__, __dir__ = _lazy.exports(
    __name__,
    {
        "cli": (),
        "core": ("CrowdEngine", "EngineConfig", "JobReport", "Requester"),
        "cost": (),
        "data": ("CNULL", "Database", "Schema", "SchemaBuilder", "Table"),
        "deco": (),
        "errors": ("CrowdDMError",),
        "experiments": (),
        "faults": (),
        "hybrid": (),
        "lang": ("CrowdOracle", "CrowdSQLSession"),
        "latency": (),
        "obs": (),
        "operators": (),
        "platform": ("BatchConfig", "BatchScheduler", "SimulatedPlatform", "Task", "TaskType"),
        "quality": (),
        "recovery": (),
        "service": (),
        "workers": ("Worker", "WorkerPool"),
    },
    public=("__version__", "deco"),
)
