"""The lane count is only a clock: every operator asks the same questions.

With accuracy-1.0 workers every answer is its task's truth under either
RNG rule, so an operator run at 1, 2 and 8 simulated lanes must make the
same sequence of scheduler runs (task count, redundancy) and return the
same questions, spend and results. Only the simulated makespan may differ.
"""

import pytest

from repro.core.config import EngineConfig
from repro.core.engine import CrowdEngine
from repro.experiments.datasets import er_dataset
from repro.latency.rounds import RoundScheduler
from repro.operators.collect import bind_zipf_knowledge
from repro.workers.models import CollectorModel
from repro.workers.pool import WorkerPool
from repro.workers.worker import Worker

from conftest import make_choice_tasks

LANES = (1, 2, 8)
ER = er_dataset(15, (2, 3), seed=1)


def _collector_pool():
    pool = WorkerPool([Worker(model=CollectorModel()) for _ in range(10)], seed=2)
    bind_zipf_knowledge(pool, [f"shop {i}" for i in range(30)], knowledge_size=8, seed=3)
    return pool


def _next_round(answers, index):
    # One follow-up question per task the previous round answered (two
    # answers each), then stop.
    return make_choice_tasks(len(answers) // 2, seed=index) if index < 2 else []


def _run(name, engine):
    """Run one operator; return what must not depend on the lane count."""
    if name == "filter":
        result = engine.filter(list(range(30)), "even?", lambda i: i % 2 == 0)
        return result.questions_asked, result.decisions
    if name.startswith("join"):
        result = engine.join(
            ER.records, ER.truth_fn, use_transitivity=name == "join_transitive"
        )
        return result.questions_asked, result.answers_bought, sorted(result.matched_pairs)
    if name.startswith("sort_"):
        strategy = name[len("sort_"):]
        kwargs = {"close_threshold": 2.0} if strategy == "hybrid" else {}
        result = engine.sort(
            list(range(12)), score_fn=lambda k: k / 3, strategy=strategy, **kwargs
        )
        return result.comparisons_asked, result.answers_bought, result.order
    if name == "topk":
        result = engine.topk([f"x{i}" for i in range(11)], lambda x: int(x[1:]), k=3)
        return result.comparisons_asked, result.answers_bought, result.winners
    if name == "collect":
        # Contributions are drawn, not judged: compare the query count only.
        return engine.collect("Name a shop.", 40).queries_issued
    assert name == "rounds"
    outcome = RoundScheduler(engine.platform, redundancy=2).run(
        make_choice_tasks(6, seed=1), _next_round
    )
    return [[a.value for a in record.answers] for record in outcome.rounds]


_OPERATORS = (
    "filter", "join_transitive", "join_plain", "sort_merge", "sort_all_pairs",
    "sort_rating", "sort_hybrid", "topk", "collect", "rounds",
)


def _observe(name, lanes):
    engine = CrowdEngine(
        EngineConfig(seed=4, max_parallel=lanes, pool_accuracy_range=(1.0, 1.0)),
        pool=_collector_pool() if name == "collect" else None,
    )
    calls = []
    run = engine.scheduler.run

    def recording(tasks, redundancy=3, complete=True, **hooks):
        calls.append((len(tasks), redundancy))
        return run(tasks, redundancy, complete, **hooks)

    engine.scheduler.run = recording
    outcome = _run(name, engine)
    return calls, round(engine.spent, 9), outcome


@pytest.mark.parametrize("name", _OPERATORS)
def test_operator_is_lane_independent(name):
    one_lane = _observe(name, 1)
    assert one_lane[0], "the operator made no scheduler run"
    for lanes in LANES[1:]:
        assert _observe(name, lanes) == one_lane, f"{name} differs at {lanes} lanes"
