"""Worker sampling replays ``Generator.choice`` draw for draw.

:class:`~repro.workers.pool.WorkerPool` never calls ``Generator.choice``:
it derives the bounded draws ``choice(n, k, replace=False)`` makes and
takes them from one ``integers`` call (a whole wave's tasks at once in the
batch scheduler). Every random stream in the library depends on that
equivalence, so these tests hold each selection *and* the generator's
final ``bit_generator.state`` to ``choice`` itself, on whichever numpy the
suite runs with: a numpy that changes how ``choice`` draws fails here
instead of silently moving every stream.
"""

import numpy as np
import pytest

from repro.errors import NoWorkersAvailableError
from repro.platform.batch import BatchConfig
from repro.platform.platform import SimulatedPlatform
from repro.platform.task import Answer
from repro.workers.pool import WorkerPool

from conftest import make_choice_tasks


def _reference(rng, workers, k, exclude=frozenset()):
    """The sampling rule as ``Generator.choice`` states it."""
    eligible = [w for w in workers if w.active and w.worker_id not in exclude]
    if len(eligible) < k:
        raise NoWorkersAvailableError(f"{len(eligible)} < {k}")
    return [eligible[i] for i in sorted(rng.choice(len(eligible), size=k, replace=False))]


def _twin(pool_size, seed):
    """A pool and a generator seeded as the pool's own."""
    return WorkerPool.uniform(pool_size, seed=seed), np.random.default_rng(seed)


class TestSampleMatchesChoice:
    @pytest.mark.parametrize("seed", range(3))
    def test_every_k_up_to_n_with_interleaved_draws(self, seed):
        for n in range(1, 61):
            pool, ref = _twin(n, seed * 1000 + n)
            for k in range(n + 1):
                # Another consumer of the same generator between calls.
                assert pool.rng.random() == ref.random()
                assert pool.sample(k) == _reference(ref, pool.workers, k)
            assert pool.rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("seed", range(5))
    def test_random_exclusions_and_inactive_workers(self, seed):
        chooser = np.random.default_rng([seed, 99])
        pool, ref = _twin(40, seed)
        for worker in pool.workers[::7]:
            worker.active = False
        ids = [w.worker_id for w in pool.workers]
        for _ in range(200):
            exclude = set(chooser.choice(ids, size=int(chooser.integers(0, 30)), replace=False))
            eligible = [w for w in pool.workers if w.active and w.worker_id not in exclude]
            k = int(chooser.integers(0, len(eligible) + 1))
            assert pool.sample(k, exclude=exclude) == _reference(ref, pool.workers, k, exclude)
            assert pool.rng.integers(1 << 40) == ref.integers(1 << 40)
        assert pool.rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("n", [10_001, 12_000])
    def test_large_pools_on_both_sides_of_the_tail_shuffle(self, n):
        # numpy switches from Floyd's algorithm to a tail shuffle above
        # 10,000 candidates once k > n // 50.
        cut = n // 50
        pool = WorkerPool.uniform(n)
        for k in (1, cut - 1, cut, cut + 1, 3 * cut, n - 1, n):
            pool.rng, ref = np.random.default_rng([n, k]), np.random.default_rng([n, k])
            assert pool.rng.random() == ref.random()
            assert pool.sample(k) == _reference(ref, pool.workers, k)
            assert pool.rng.bit_generator.state == ref.bit_generator.state

    def test_too_many_raises_before_drawing(self):
        pool = WorkerPool.uniform(5, seed=3)
        state = pool.rng.bit_generator.state
        with pytest.raises(NoWorkersAvailableError, match="requested 6 workers but only 5"):
            pool.sample(6)
        with pytest.raises(NoWorkersAvailableError):
            pool.sample(4, exclude={pool.workers[0].worker_id, pool.workers[1].worker_id})
        assert pool.rng.bit_generator.state == state

    def test_one_draw_serves_many_requests(self):
        pool, ref = _twin(30, 8)
        requests = [(pool.workers[:n], k) for n, k in ((30, 3), (1, 1), (12, 12), (29, 0), (7, 2))]
        picks = pool.draw(requests)
        assert picks == [_reference(ref, candidates, k) for candidates, k in requests]
        assert pool.rng.bit_generator.state == ref.bit_generator.state


class TestWavePlanning:
    """The scheduler samples a wave's tasks in one draw, equal to one
    ``choice`` per task in task order."""

    def _world(self, policy, pool_size=8, seed=4):
        pool = WorkerPool.uniform(pool_size, seed=seed)
        platform = SimulatedPlatform(pool, seed=seed + 1, batch=BatchConfig(failure_policy=policy))
        return platform, np.random.default_rng(seed)

    def _answered(self, platform, task, workers):
        for worker in workers:
            platform.record_answer(Answer(task.task_id, worker.worker_id, "a"))

    @pytest.mark.parametrize("policy", ["fail", "degrade"])
    def test_wave_equals_successive_samples(self, policy):
        platform, ref = self._world(policy)
        workers = platform.pool.workers
        tasks = make_choice_tasks(12, seed=1)
        # Round-structured callers: some tasks already have answers.
        self._answered(platform, tasks[2], workers[:2])
        self._answered(platform, tasks[7], workers[3:6])
        answers = platform.scheduler.run(tasks, redundancy=3, complete=False).answers
        for task in tasks:
            done = {a.worker_id for a in platform.answers_for(task.task_id)[:-3]}
            want = _reference(ref, workers, 3, done)
            assert [a.worker_id for a in answers[task.task_id]] == [w.worker_id for w in want]
        assert platform.pool.rng.bit_generator.state == ref.bit_generator.state

    def test_short_task_under_fail_raises_after_the_tasks_before_it_drew(self):
        platform, ref = self._world("fail")
        workers = platform.pool.workers
        tasks = make_choice_tasks(6, seed=2)
        self._answered(platform, tasks[3], workers[:6])  # 2 eligible < 3
        with pytest.raises(NoWorkersAvailableError, match="requested 3 workers but only 2"):
            platform.scheduler.run(tasks, redundancy=3)
        for _ in range(3):
            _reference(ref, workers, 3)
        assert platform.pool.rng.bit_generator.state == ref.bit_generator.state
        # The tasks before it were planned: their assignments hold stream ids.
        assert platform.scheduler._streams == 9

    def test_short_tasks_under_degrade_take_every_eligible_worker(self):
        platform, ref = self._world("degrade")
        workers = platform.pool.workers
        tasks = make_choice_tasks(5, seed=3)
        self._answered(platform, tasks[1], workers[:6])  # 2 eligible: both taken
        self._answered(platform, tasks[3], workers)      # none eligible: no draw
        result = platform.scheduler.run(tasks, redundancy=3, complete=False)
        expected = {
            0: _reference(ref, workers, 3),
            1: _reference(ref, workers, 2, {w.worker_id for w in workers[:6]}),
            2: _reference(ref, workers, 3),
            4: _reference(ref, workers, 3),
        }
        for index, want in expected.items():
            got = result.answers[tasks[index].task_id]
            assert [a.worker_id for a in got] == [w.worker_id for w in want]
        assert result.answers[tasks[3].task_id] == []
        assert result.failures[tasks[3].task_id].reason == "no_workers"
        assert platform.pool.rng.bit_generator.state == ref.bit_generator.state
