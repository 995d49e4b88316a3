"""B8 — Hedged execution under straggler spikes: p95 makespan vs cost.

A sequence of statements (one ``scheduler.run`` each) executes on a
persistent platform under a pure straggler-spike fault plan (25% of
assignments run 20x their sampled service time; no churn, outages, or
delivery noise, so every delta is attributable to hedging). The hedged
platform fits per-task-type completion models online and speculatively
re-issues in-flight stragglers, first answer wins, losing copy cancelled
and refunded.

Gates (the ISSUE 8 acceptance bar):

* p95 of per-statement makespans drops by >= 2x with hedging on;
* hedged spend stays within 1.3x of the unhedged run (it is in fact
  equal here: losing copies are cancelled before payment);
* a hedged replay under the same seed is bit-identical.

Statement 1 is a warmup for both strategies — the completion model only
becomes decision-grade after the first statement's observations — and is
excluded from the p95 (reported separately).
"""

import json

import numpy as np
from conftest import bench_artifact, run_once

from repro.experiments.harness import quick_mode
from repro.faults import straggler_spike_plan
from repro.platform.batch import BatchConfig
from repro.platform.platform import SimulatedPlatform
from repro.platform.task import single_choice
from repro.workers.pool import WorkerPool

N_STATEMENTS = 8 if quick_mode() else 20
TASKS_PER_STATEMENT = 12 if quick_mode() else 24
REDUNDANCY = 3
POOL_SIZE = 32
SEED = 17
SPIKE_RATE = 0.25
SPIKE_MULTIPLIER = 20.0


def _tasks(statement: int) -> list:
    return [
        single_choice(
            f"s{statement} item {i}: keep?",
            ("yes", "no"),
            truth="yes" if i % 2 else "no",
        )
        for i in range(TASKS_PER_STATEMENT)
    ]


def _run_strategy(hedge: bool) -> dict:
    """All statements under one strategy; per-statement makespans + totals."""
    pool = WorkerPool.heterogeneous(
        POOL_SIZE, accuracy_low=0.7, accuracy_high=0.95, seed=SEED
    )
    platform = SimulatedPlatform(
        pool,
        seed=SEED + 1,
        batch=BatchConfig(
            batch_size=TASKS_PER_STATEMENT,
            max_parallel=8,
            seed=SEED + 2,
            hedge_enabled=hedge,
            hedge_min_samples=20,
        ),
    )
    platform.attach_faults(
        straggler_spike_plan(SEED, rate=SPIKE_RATE, multiplier=SPIKE_MULTIPLIER)
    )
    makespans = []
    for statement in range(N_STATEMENTS):
        run = platform.scheduler.run(_tasks(statement), redundancy=REDUNDANCY)
        makespans.append(run.makespan)
    stats = platform.stats
    return {
        "makespans": makespans,
        "warmup_makespan": makespans[0],
        "p95": float(np.percentile(makespans[1:], 95)),
        "median": float(np.percentile(makespans[1:], 50)),
        "total_makespan": float(sum(makespans)),
        "cost": stats.cost_spent,
        "hedges": stats.hedges_launched,
        "hedges_won": stats.hedges_won,
        "hedges_lost": stats.hedges_lost,
        "hedges_cancelled": stats.hedges_cancelled,
        "refunded": stats.hedge_cost_refunded,
        "stragglers": int(platform.metrics.counter("faults.stragglers").value)
        if platform.metrics.enabled
        else -1,
    }


def test_b8_hedging_tail_latency(benchmark, report):
    def measure() -> dict:
        baseline = _run_strategy(hedge=False)
        hedged = _run_strategy(hedge=True)
        replay = _run_strategy(hedge=True)
        return {"baseline": baseline, "hedged": hedged, "replay": replay}

    values = run_once(benchmark, measure)
    baseline, hedged, replay = values["baseline"], values["hedged"], values["replay"]
    p95_speedup = baseline["p95"] / hedged["p95"]
    cost_ratio = hedged["cost"] / baseline["cost"]

    report.table(
        [
            {
                "strategy": name,
                "p95_makespan_s": r["p95"],
                "median_makespan_s": r["median"],
                "total_makespan_s": r["total_makespan"],
                "cost": r["cost"],
                "hedges": r["hedges"],
                "won": r["hedges_won"],
            }
            for name, r in (("none", baseline), ("hedge", hedged))
        ],
        title=(
            f"B8: hedging under straggler spikes ({N_STATEMENTS} statements x "
            f"{TASKS_PER_STATEMENT} tasks, redundancy {REDUNDANCY}, "
            f"{SPIKE_RATE:.0%} spiked {SPIKE_MULTIPLIER:.0f}x)"
        ),
    )
    report.note(
        f"p95 speedup {p95_speedup:.2f}x at {cost_ratio:.2f}x cost; "
        f"warmup statement {hedged['warmup_makespan']:.0f}s hedged vs "
        f"{baseline['warmup_makespan']:.0f}s baseline (excluded from p95); "
        f"refunded {hedged['refunded']:.4f} on "
        f"{hedged['hedges_won'] + hedged['hedges_lost']} cancelled copies"
    )

    out_path = bench_artifact("BENCH_hedging.json")
    with open(out_path, "w") as fh:
        json.dump(
            {
                "workload": {
                    "statements": N_STATEMENTS,
                    "tasks_per_statement": TASKS_PER_STATEMENT,
                    "redundancy": REDUNDANCY,
                    "pool": POOL_SIZE,
                    "spike_rate": SPIKE_RATE,
                    "spike_multiplier": SPIKE_MULTIPLIER,
                    "quick": quick_mode(),
                },
                "baseline": {k: v for k, v in baseline.items() if k != "makespans"},
                "hedged": {k: v for k, v in hedged.items() if k != "makespans"},
                "p95_speedup": p95_speedup,
                "cost_ratio": cost_ratio,
                "replay_identical": replay == hedged,
                "gates": {
                    "p95_speedup >= 2.0": p95_speedup >= 2.0,
                    "cost_ratio <= 1.3": cost_ratio <= 1.3,
                },
            },
            fh,
            indent=2,
        )

    # Hedging must actually fire, and the replay must be bit-identical.
    assert hedged["hedges"] > 0
    assert replay == hedged
    # Acceptance gates: >= 2x p95 improvement at <= 1.3x cost.
    assert p95_speedup >= 2.0, f"p95 speedup {p95_speedup:.2f}x < 2.0x"
    assert cost_ratio <= 1.3, f"cost ratio {cost_ratio:.2f}x > 1.3x"
