"""B1 — Batched concurrent runtime: throughput vs the sequential path.

A 500-task filter workload is dispatched through the BatchScheduler at
increasing lane counts. Expected shape: simulated throughput (assignments
per simulated second) scales with ``max_parallel`` because independent
assignments overlap on separate lanes, while ``max_parallel=1`` reproduces
a plain sequential sampling-and-answering loop answer-for-answer. A
fault-injected row shows the retry machinery delivering full redundancy
despite abandonment and timeouts.
"""

import json
import time

from conftest import bench_artifact, run_once

from repro.experiments.harness import quick_mode, run_trials
from repro.obs import MetricsRegistry, NullSink, Tracer
from repro.obs.prom import render_prometheus, validate_exposition
from repro.platform.batch import BatchConfig
from repro.platform.platform import SimulatedPlatform
from repro.platform.task import single_choice
from repro.workers.pool import WorkerPool

N_TASKS = 100 if quick_mode() else 500
REDUNDANCY = 3
POOL_SIZE = 40
LANES = (1, 2, 4, 8)


def _tasks(n: int) -> list:
    return [
        single_choice(f"item {i}: keep?", ("yes", "no"), truth="yes" if i % 2 else "no")
        for i in range(n)
    ]


def _platform(
    seed: int,
    batch: BatchConfig | None = None,
    tracer=None,
    metrics=None,
) -> SimulatedPlatform:
    pool = WorkerPool.heterogeneous(
        POOL_SIZE, accuracy_low=0.7, accuracy_high=0.95, seed=seed
    )
    return SimulatedPlatform(pool, seed=seed + 1, batch=batch, tracer=tracer, metrics=metrics)


def _normalized(platform: SimulatedPlatform, tasks: list, answers: dict) -> list:
    """Answer stream keyed by workload position and within-pool worker index.

    Worker and task ids both come from process-global counters, so two
    platforms built in the same process name them differently even when the
    pools and workloads are identical; positions are the stable identities.
    """
    index = {w.worker_id: i for i, w in enumerate(platform.pool)}
    return [
        (ti, index[a.worker_id], a.value, round(a.submitted_at, 9))
        for ti, task in enumerate(tasks)
        for a in answers[task.task_id]
    ]


def _sequential_answers(platform: SimulatedPlatform, tasks: list) -> dict:
    """Reference outside the scheduler: for each task in order, sample the
    workers, then let each answer from the platform RNG."""
    return {
        task.task_id: [
            worker.submit(task, platform.rng)
            for worker in platform.pool.sample(REDUNDANCY)
        ]
        for task in tasks
    }


def _trial(seed: int) -> dict[str, float]:
    values: dict[str, float] = {}

    ref = _platform(seed)
    ref_tasks = _tasks(N_TASKS)
    ref_stream = _normalized(ref, ref_tasks, _sequential_answers(ref, ref_tasks))

    for lanes in LANES:
        cfg = BatchConfig(batch_size=50, max_parallel=lanes, seed=seed + 2)
        platform = _platform(seed, batch=cfg)
        tasks = _tasks(N_TASKS)
        run = platform.scheduler.run(tasks, redundancy=REDUNDANCY)
        values[f"makespan@{lanes}"] = run.makespan
        values[f"throughput@{lanes}"] = run.throughput
        if lanes == 1:
            values["seq_identical"] = float(
                _normalized(platform, tasks, run.answers) == ref_stream
            )

    # Fault injection: abandonment + tight deadline, retries must refill.
    faulty_cfg = BatchConfig(
        batch_size=50,
        max_parallel=8,
        retry_limit=8,
        abandon_rate=0.15,
        assignment_timeout=90.0,
        seed=seed + 2,
    )
    faulty = _platform(seed, batch=faulty_cfg)
    run = faulty.scheduler.run(_tasks(N_TASKS), redundancy=REDUNDANCY)
    values["faulty_retries"] = faulty.stats.assignments_retried
    values["faulty_full_redundancy"] = float(
        all(len(a) == REDUNDANCY for a in run.answers.values())
    )
    return values


def test_b1_batch_runtime_throughput(benchmark, report):
    result = run_once(benchmark, lambda: run_trials("B1", _trial, n_trials=3))

    rows = [
        {
            "max_parallel": lanes,
            "sim_makespan_s": result.mean(f"makespan@{lanes}"),
            "sim_throughput": result.mean(f"throughput@{lanes}"),
            "speedup_vs_seq": result.mean(f"throughput@{lanes}")
            / result.mean("throughput@1"),
        }
        for lanes in LANES
    ]
    report.table(
        rows,
        title=f"B1: batch runtime scaling ({N_TASKS} filter tasks, redundancy {REDUNDANCY})",
    )
    report.note(
        f"fault row: {result.mean('faulty_retries'):.1f} retries/trial, "
        f"full redundancy in {result.mean('faulty_full_redundancy'):.0%} of trials"
    )

    # max_parallel=1 must reproduce the pre-batch sequential path exactly.
    assert result.mean("seq_identical") == 1.0
    # Acceptance: >= 2x simulated throughput at 8 lanes vs sequential.
    assert result.mean("throughput@8") >= 2.0 * result.mean("throughput@1")
    # Faults happened and were absorbed: every task still got full redundancy.
    assert result.mean("faulty_retries") > 0
    assert result.mean("faulty_full_redundancy") == 1.0


def _timed_run(seed: int, tracer=None, metrics=None, repeats: int = 5) -> float:
    """Best-of-*repeats* wall-clock for the standard workload (seconds)."""
    best = float("inf")
    for _ in range(repeats):
        cfg = BatchConfig(batch_size=50, max_parallel=4, seed=seed + 2)
        platform = _platform(seed, batch=cfg, tracer=tracer, metrics=metrics)
        tasks = _tasks(N_TASKS)
        start = time.perf_counter()
        platform.scheduler.run(tasks, redundancy=REDUNDANCY)
        best = min(best, time.perf_counter() - start)
        if tracer is not None:
            tracer.close()
    return best


def test_b1_null_sink_overhead(benchmark, report):
    """Observability wired to a null sink stays within noise of the off path.

    Off path = NULL_TRACER + disabled registry (the defaults). On path =
    enabled tracer emitting to :class:`~repro.obs.sinks.NullSink` plus an
    enabled registry — full span/counter bookkeeping, no I/O. The guard
    allows 5% relative overhead plus a 50 ms absolute floor so timer noise
    on sub-100ms quick runs cannot trip it.
    """

    def measure() -> dict[str, float]:
        off = _timed_run(seed=11)
        on = _timed_run(
            seed=11,
            tracer=Tracer(NullSink()),
            metrics=MetricsRegistry(enabled=True),
        )
        return {"off_s": off, "on_s": on}

    values = run_once(benchmark, measure)
    overhead = values["on_s"] / values["off_s"] - 1.0
    report.note(
        f"B1 overhead guard: off {values['off_s'] * 1e3:.1f} ms, "
        f"on (null sink) {values['on_s'] * 1e3:.1f} ms, overhead {overhead:+.1%}"
    )
    assert values["on_s"] <= values["off_s"] * 1.05 + 0.050


def _timed_run_scraped(seed: int, repeats: int = 5) -> dict[str, float]:
    """Enabled registry (labeled families on) + one mid-run scrape per run."""
    best = float("inf")
    best_render = 0.0
    samples = 0
    for _ in range(repeats):
        cfg = BatchConfig(batch_size=50, max_parallel=4, seed=seed + 2)
        registry = MetricsRegistry(enabled=True)
        platform = _platform(seed, batch=cfg, metrics=registry)
        tasks = _tasks(N_TASKS)
        start = time.perf_counter()
        platform.scheduler.run(tasks, redundancy=REDUNDANCY)
        render_start = time.perf_counter()
        body = render_prometheus(registry)
        render_s = time.perf_counter() - render_start
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
            best_render = render_s
            samples = validate_exposition(body)
    return {"on_s": best, "render_s": best_render, "samples": float(samples)}


def test_b1_labeled_metrics_exporter_overhead(benchmark, report):
    """Labeled metrics + the Prometheus exporter stay inside the same gate.

    On path = enabled registry recording every labeled family (operator,
    cache outcome, assignment outcome) plus one full ``render_prometheus``
    scrape of the run — the serve-metrics steady state. Same guard as the
    null-sink test: 5% relative overhead plus a 50 ms absolute floor.
    """

    def measure() -> dict[str, float]:
        off = _timed_run(seed=13)
        scraped = _timed_run_scraped(seed=13)
        return {"off_s": off, **scraped}

    values = run_once(benchmark, measure)
    overhead = values["on_s"] / values["off_s"] - 1.0
    report.note(
        f"B1 exporter guard: off {values['off_s'] * 1e3:.1f} ms, "
        f"on (labeled metrics + scrape) {values['on_s'] * 1e3:.1f} ms "
        f"(render {values['render_s'] * 1e3:.2f} ms, "
        f"{values['samples']:.0f} samples), overhead {overhead:+.1%}"
    )

    out_path = bench_artifact("BENCH_obs.json")
    with open(out_path, "w") as fh:
        json.dump(
            {
                "workload": {
                    "tasks": N_TASKS,
                    "redundancy": REDUNDANCY,
                    "max_parallel": 4,
                    "quick": quick_mode(),
                },
                "off_s": values["off_s"],
                "on_s": values["on_s"],
                "render_s": values["render_s"],
                "exposition_samples": values["samples"],
                "overhead_rel": overhead,
                "gate": "on_s <= off_s * 1.05 + 0.050",
            },
            fh,
            indent=2,
        )

    assert values["samples"] > 0
    assert values["on_s"] <= values["off_s"] * 1.05 + 0.050
