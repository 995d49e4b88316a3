"""Unit tests for the batched task runtime (repro.platform.batch)."""

import threading

import pytest

from repro.core import CrowdEngine, EngineConfig
from repro.errors import (
    ConfigurationError,
    NoWorkersAvailableError,
    RetryExhaustedError,
)
from repro.latency.rounds import RoundScheduler
from repro.platform.batch import BatchConfig, BatchScheduler
from repro.platform.platform import SimulatedPlatform
from repro.platform.task import single_choice
from repro.workers.pool import WorkerPool


def make_platform(seed=7, pool_size=20, batch=None):
    pool = WorkerPool.heterogeneous(
        pool_size, accuracy_low=0.7, accuracy_high=0.95, seed=seed
    )
    return SimulatedPlatform(pool, seed=seed + 1, batch=batch)


def make_tasks(n):
    return [
        single_choice(f"item {i}?", ("yes", "no"), truth="yes" if i % 2 else "no")
        for i in range(n)
    ]


def stream(platform, tasks, answers):
    """Answer tuples keyed by workload position and within-pool worker index.

    Worker/task ids come from process-global counters, so separately built
    platforms name them differently; positions are the stable identities.
    """
    widx = {w.worker_id: i for i, w in enumerate(platform.pool)}
    return [
        (ti, widx[a.worker_id], a.value, round(a.submitted_at, 9))
        for ti, task in enumerate(tasks)
        for a in answers[task.task_id]
    ]


class TestBatchConfig:
    def test_defaults_are_sequential_and_fault_free(self):
        cfg = BatchConfig()
        assert cfg.max_parallel == 1
        assert not cfg.faults_enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"batch_size": 0},
            {"max_parallel": 0},
            {"retry_limit": -1},
            {"abandon_rate": 1.5},
            {"abandon_rate": -0.1},
            {"assignment_timeout": 0.0},
            {"seed": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigurationError):
            BatchConfig(**kwargs)

    def test_faults_enabled_flags(self):
        assert BatchConfig(abandon_rate=0.1).faults_enabled
        assert BatchConfig(assignment_timeout=10.0).faults_enabled


def sequential_answers(platform, tasks, redundancy):
    """The one-lane contract written out, outside the scheduler: for each
    task in order, sample its workers from the pool, then let each sampled
    worker answer from the platform RNG."""
    return {
        task.task_id: [
            worker.submit(task, platform.rng)
            for worker in platform.pool.sample(redundancy)
        ]
        for task in tasks
    }


class TestSequentialEquivalence:
    def test_max_parallel_1_matches_legacy_collect(self):
        ref = make_platform()
        ref_tasks = make_tasks(30)
        ref_stream = stream(ref, ref_tasks, sequential_answers(ref, ref_tasks, 3))

        for batch_size in (8, 1, 7):
            batched = make_platform(
                batch=BatchConfig(batch_size=batch_size, max_parallel=1, seed=99)
            )
            tasks = make_tasks(30)
            run = batched.scheduler.run(tasks, redundancy=3)
            assert stream(batched, tasks, run.answers) == ref_stream, batch_size

        # collect() on a platform built without a batch config: the default
        # one-lane scheduler.
        plain = make_platform()
        tasks = make_tasks(30)
        assert stream(plain, tasks, plain.collect(tasks, redundancy=3)) == ref_stream

    def test_engine_default_config_unchanged_by_batching(self):
        results = []
        for batch_size in (4, 64):
            engine = CrowdEngine(EngineConfig(seed=5, redundancy=3, batch_size=batch_size))
            items = list(range(20))
            results.append(engine.filter(items, "even?", lambda i: i % 2 == 0).decisions)
        assert results[0] == results[1]


class TestDeterminism:
    CFG = dict(
        batch_size=10,
        max_parallel=4,
        retry_limit=6,
        abandon_rate=0.2,
        assignment_timeout=80.0,
    )

    def _run(self, seed):
        platform = make_platform(batch=BatchConfig(seed=seed, **self.CFG))
        tasks = make_tasks(25)
        run = platform.scheduler.run(tasks, redundancy=3)
        return stream(platform, tasks, run.answers), run.makespan

    def test_parallel_faulty_runs_are_reproducible(self):
        first = self._run(seed=123)
        second = self._run(seed=123)
        assert first == second

    def test_seed_changes_the_run(self):
        assert self._run(seed=123) != self._run(seed=321)


class TestFaultModel:
    def test_timeouts_are_retried_to_full_redundancy(self):
        platform = make_platform(
            batch=BatchConfig(
                batch_size=16,
                max_parallel=4,
                retry_limit=10,
                assignment_timeout=60.0,
                seed=11,
            )
        )
        run = platform.scheduler.run(make_tasks(20), redundancy=3)
        assert platform.stats.assignments_timed_out > 0
        assert platform.stats.assignments_retried > 0
        assert all(len(a) == 3 for a in run.answers.values())

    def test_abandonment_is_retried_to_full_redundancy(self):
        platform = make_platform(
            batch=BatchConfig(
                batch_size=16, max_parallel=4, retry_limit=10, abandon_rate=0.3, seed=11
            )
        )
        run = platform.scheduler.run(make_tasks(20), redundancy=3)
        assert platform.stats.assignments_abandoned > 0
        assert all(len(a) == 3 for a in run.answers.values())

    def test_exhausted_retries_raise(self):
        platform = make_platform(
            batch=BatchConfig(max_parallel=2, retry_limit=1, abandon_rate=1.0, seed=3)
        )
        with pytest.raises(RetryExhaustedError) as excinfo:
            platform.scheduler.run(make_tasks(4), redundancy=2)
        assert excinfo.value.attempts == 2
        assert "retry budget exhausted" in str(excinfo.value)
        assert excinfo.value.outcomes == ["abandoned", "abandoned"]
        assert excinfo.value.task_id in str(excinfo.value)

    def test_retry_prefers_fresh_workers(self):
        # Pool of 3, redundancy 3: a retry cannot find an unattempted worker
        # and must fall back to re-using one that abandoned earlier.
        platform = make_platform(
            pool_size=3,
            batch=BatchConfig(max_parallel=2, retry_limit=20, abandon_rate=0.4, seed=2),
        )
        run = platform.scheduler.run(make_tasks(6), redundancy=3)
        assert all(len(a) == 3 for a in run.answers.values())

    def test_lanes_start_no_thread(self, monkeypatch):
        def refuse(thread):
            raise AssertionError("the batch runtime must not start a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        platform = make_platform(
            batch=BatchConfig(
                batch_size=16,
                max_parallel=8,
                retry_limit=10,
                abandon_rate=0.2,
                assignment_timeout=80.0,
                seed=5,
            )
        )
        run = platform.scheduler.run(make_tasks(30), redundancy=3)
        stats = platform.stats
        assert stats.assignments_abandoned > 0
        assert stats.assignments_timed_out > 0
        assert stats.assignments_retried > 0
        assert len(run.answers) == 30
        assert all(len(a) == 3 for a in run.answers.values())

    def test_redundancy_above_pool_still_rejected(self):
        platform = make_platform(
            pool_size=2, batch=BatchConfig(max_parallel=2, seed=1)
        )
        with pytest.raises(NoWorkersAvailableError):
            platform.scheduler.run(make_tasks(2), redundancy=5)


class TestAccounting:
    def test_counters_and_summary(self):
        platform = make_platform(batch=BatchConfig(batch_size=8, max_parallel=4, seed=1))
        run = platform.scheduler.run(make_tasks(20), redundancy=2)
        stats = platform.stats
        assert stats.batches_dispatched == 3          # ceil(20 / 8)
        assert stats.assignments_dispatched == 40
        assert stats.batch_makespan == pytest.approx(run.makespan)
        assert stats.batch_wall_clock > 0.0
        summary = stats.batch_summary()
        assert "3 batches" in summary and "40 assignments" in summary

    def test_summary_empty_without_batches(self):
        platform = make_platform()
        assert platform.stats.batch_summary() == ""

    def test_makespan_shrinks_with_lanes(self):
        makespans = {}
        for lanes in (1, 8):
            platform = make_platform(
                batch=BatchConfig(batch_size=50, max_parallel=lanes, seed=4)
            )
            makespans[lanes] = platform.scheduler.run(make_tasks(40), redundancy=3).makespan
        assert makespans[8] < makespans[1] / 2.0

    def test_run_result_throughput(self):
        platform = make_platform(batch=BatchConfig(batch_size=8, max_parallel=2, seed=1))
        run = platform.scheduler.run(make_tasks(10), redundancy=2)
        assert run.throughput == pytest.approx(10 / run.makespan)


class TestEngineIntegration:
    def test_engine_config_validation(self):
        with pytest.raises(ConfigurationError):
            EngineConfig(max_parallel=0)

    def test_engine_exposes_scheduler(self):
        engine = CrowdEngine(EngineConfig(seed=1, max_parallel=4))
        assert isinstance(engine.scheduler, BatchScheduler)
        assert engine.scheduler.parallel

    def test_parallel_operators_deterministic(self):
        def run():
            engine = CrowdEngine(EngineConfig(seed=9, max_parallel=4, batch_size=16))
            items = list(range(24))
            filt = engine.filter(items, "small?", lambda i: i < 12)
            top = engine.topk([f"x{i}" for i in range(9)], lambda x: int(x[1:]), k=2)
            return filt.decisions, top.winners

        assert run() == run()

    def test_parallel_filter_counts_batches(self):
        engine = CrowdEngine(EngineConfig(seed=2, max_parallel=4, batch_size=16))
        engine.filter(list(range(10)), "small?", lambda i: i < 5)
        assert engine.stats.batches_dispatched > 0
        assert engine.stats.assignments_dispatched > 0


class TestRoundSchedulerBatched:
    def test_batched_rounds_report_makespan(self):
        platform = make_platform(batch=BatchConfig(batch_size=8, max_parallel=4, seed=6))
        scheduler = RoundScheduler(platform, redundancy=2)
        outcome = scheduler.run(
            make_tasks(6), lambda answers, i: make_tasks(3) if i < 3 else []
        )
        assert outcome.round_count == 3
        assert outcome.total_latency > 0.0
        assert outcome.total_answers == (6 + 3 + 3) * 2
