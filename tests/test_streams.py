"""The wave-seeded per-assignment streams (repro.platform.streams).

Above one lane every scheduler assignment draws from the stream
``np.random.default_rng([seed, stream])`` starts. The scheduler no longer
builds that generator; it re-positions one reusable generator instead.
These tests hold the two to the same draws: the kernel against numpy
directly, and the scheduler against a copy that still builds one generator
per assignment.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.faults import DeliveryFaults, FaultPlan, StragglerSpikes
from repro.platform.batch import BatchConfig, BatchScheduler
from repro.platform.platform import SimulatedPlatform
from repro.platform.streams import StreamGenerator, pcg64_states
from repro.platform.task import rate, single_choice
from repro.workers.models import ConfusionMatrixModel, OneCoinModel
from repro.workers.pool import WorkerPool
from repro.workers.worker import Worker


def entropy(seed, stream):
    return [stream] if seed is None else [seed, stream]


# Entropy of one to six uint32 words: seeds of one, two and three words, and
# numpy integer types (numpy seeds from their int value).
SEEDS = st.one_of(
    st.none(),
    st.integers(0, 2**16),
    st.integers(0, 2**16).map(lambda k: 2**32 + k),
    st.integers(0, 2**16).map(lambda k: 2**64 + k),
    st.sampled_from([np.int64(7), np.uint32(2**32 - 1), np.uint64(2**63 + 1), np.int8(0)]),
)
# The word boundaries, plus arbitrary ids up to 2**64 - 1.
STREAM_IDS = st.lists(
    st.one_of(
        st.sampled_from([0, 1, 2**32 - 1, 2**32, 2**40]),
        st.integers(0, 2**64 - 1),
    ),
    min_size=1,
    max_size=6,
)


def draws(rng):
    """The draw kinds an attempt makes, ending on a buffered 32-bit word.

    Each ``integers(0, 4)`` takes one 32-bit half of a 64-bit output, so the
    third one leaves the other half in the generator's buffer; a stream
    that inherited it would answer its own ``integers`` calls wrongly.
    """
    return (
        rng.random(),
        rng.lognormal(np.log(30.0), 0.5),
        rng.integers(0, 4),
        rng.integers(0, 4),
        rng.normal(0.0, 0.2),
        rng.choice(3, p=[0.2, 0.5, 0.3]),
        rng.integers(0, 4),
    )


class TestKernel:
    @settings(max_examples=150, deadline=None)
    @given(seed=SEEDS, streams=STREAM_IDS)
    @example(seed=None, streams=[0, 2**32 - 1, 2**32, 2**40])
    @example(seed=2**64 + 3, streams=[2**32 - 1, 2**32, 2**40, 5])
    def test_repositioned_generator_draws_like_default_rng(self, seed, streams):
        walk = StreamGenerator().walk(seed, streams)
        for stream, rng in zip(streams, walk):
            assert draws(rng) == draws(np.random.default_rng(entropy(seed, stream)))

    @settings(max_examples=100, deadline=None)
    @given(seed=SEEDS, streams=STREAM_IDS)
    # A ten-word seed puts seven (eight for wide ids) entropy words past the pool.
    @example(seed=2**300 + 17, streams=[3, 2**32 + 3, 2**63])
    def test_states_equal_seed_sequence_seeding(self, seed, streams):
        for stream, pair in zip(streams, pcg64_states(seed, streams)):
            expected = np.random.PCG64(np.random.SeedSequence(entropy(seed, stream)))
            state = expected.state["state"]
            assert pair == (state["state"], state["inc"])


# ---------------------------------------------------------------------- #
# The scheduler against per-assignment generators
# ---------------------------------------------------------------------- #


class PerAssignmentScheduler(BatchScheduler):
    """The multi-lane scheduler as it drew before wave seeding: one freshly
    built generator per assignment."""

    def _execute_wave(self, wave):
        if not self.parallel:
            return super()._execute_wave(wave)
        seed = self.config.seed
        for a in wave:
            self._attempt(a, np.random.default_rng(entropy(seed, a.stream)))


LABELS = ("red", "green", "blue")


def make_platform(lanes, seed, reference):
    # One-coin workers draw integers on a wrong answer; confusion-matrix
    # workers draw through choice(p=...); rating tasks draw normals.
    matrix = {
        truth: {label: 0.8 if label == truth else 0.1 for label in LABELS}
        for truth in LABELS
    }
    workers = [Worker(model=OneCoinModel(0.6 + 0.02 * i)) for i in range(12)]
    workers += [Worker(model=ConfusionMatrixModel(matrix)) for _ in range(6)]
    platform = SimulatedPlatform(WorkerPool(workers, seed=5), seed=6)
    config = BatchConfig(
        batch_size=8,
        max_parallel=lanes,
        retry_limit=3,
        assignment_timeout=100.0,
        abandon_rate=0.1,
        seed=seed,
        failure_policy="degrade",
        hedge_enabled=True,
        hedge_min_samples=8,
    )
    scheduler_type = PerAssignmentScheduler if reference else BatchScheduler
    platform.scheduler = scheduler_type(platform, config)
    platform.attach_faults(
        FaultPlan(
            seed=4,
            stragglers=StragglerSpikes(rate=0.2, multiplier=3.0),
            delivery=DeliveryFaults(duplicate_rate=0.2),
        )
    )
    return platform


def make_tasks(run):
    return [
        rate(f"run {run} rate {i}", scale=(1, 10), truth=float(1 + i % 9))
        if i % 3 == 2
        else single_choice(f"run {run} item {i}?", LABELS, truth=LABELS[i % 3])
        for i in range(14)
    ]


def replay(lanes, seed, reference):
    """Everything three runs produce, keyed by position instead of by id."""
    platform = make_platform(lanes, seed, reference)
    widx = {w.worker_id: i for i, w in enumerate(platform.pool)}
    runs = []
    for run in range(3):
        tasks = make_tasks(run)
        result = platform.scheduler.run(tasks, redundancy=3)
        runs.append((
            [
                (position, widx[a.worker_id], a.value, a.duration)
                for position, task in enumerate(tasks)
                for a in result.answers[task.task_id]
            ],
            [
                {k: v for k, v in dataclasses.asdict(r).items() if k != "wall_clock"}
                for r in result.records
            ],
            [result.completion_times.get(task.task_id) for task in tasks],
            sorted(
                (position, info.reason, info.attempts)
                for position, task in enumerate(tasks)
                if (info := result.failures.get(task.task_id)) is not None
            ),
            result.makespan,
        ))
    return runs, platform.scheduler.simulated_clock, platform.stats.batch_summary()


class TestSchedulerStreams:
    @pytest.mark.parametrize("seed", [11, None])
    @pytest.mark.parametrize("lanes", [2, 8])
    def test_wave_seeding_draws_like_per_assignment_generators(self, lanes, seed):
        got = replay(lanes, seed, reference=False)
        expected = replay(lanes, seed, reference=True)
        assert got == expected
        runs, clock, _ = got
        # The workload reaches abandonment, timeouts, hedges and duplicates.
        records = [r for run in runs for r in run[1]]
        assert sum(r["abandoned"] for r in records) > 0
        assert sum(r["timed_out"] for r in records) > 0
        assert sum(r["hedged"] for r in records) > 0
        answers = [answer for run in runs for answer in run[0]]
        assert len(answers) > 3 * 14 * 3  # duplicated deliveries on top
        assert clock > 0.0
