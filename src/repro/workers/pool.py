"""Worker pools: populations of simulated workers with factory presets.

The presets correspond to the worker populations the tutorial's experiments
and the surveyed papers assume: homogeneous pools, heterogeneous-quality
pools, pools contaminated with spammers, and GLAD-style ability spectra.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Collection, Iterator, Sequence

import numpy as np

from repro.errors import ConfigurationError, NoWorkersAvailableError
from repro.workers.models import (
    AnswerModel,
    ComparisonNoiseModel,
    ConfusionMatrixModel,
    GladModel,
    OneCoinModel,
    SpammerModel,
)
from repro.workers.worker import Worker

#: ``Generator.choice(n, k, replace=False)`` leaves Floyd's algorithm for a
#: tail shuffle when ``n`` exceeds this and ``k > n // 50``.
_TAIL_SHUFFLE_POPULATION = 10_000


def _tail_shuffle(n: int, k: int) -> bool:
    return n > _TAIL_SHUFFLE_POPULATION and k > n // 50


@lru_cache(maxsize=64)
def _choice_highs(n: int, k: int) -> tuple[int, ...]:
    """Exclusive upper bounds of the draws ``choice(n, k, replace=False)`` makes.

    Floyd's algorithm draws on ``[0, j]`` for ``j = n-k ... n-1``, then
    shuffles its k picks with draws on ``[0, i]`` for ``i = k-1 ... 1``; the
    tail shuffle draws on ``[0, i]`` for ``i = n-1`` down to
    ``max(n-k, 1)``. A bound of 1 (``[0, 0]``) consumes no randomness, in
    ``choice`` and in ``integers`` alike.
    """
    if _tail_shuffle(n, k):
        return tuple(range(n, max(n - k, 1), -1))
    return tuple(range(n - k + 1, n + 1)) + tuple(range(k, 1, -1))


def _choice_picks(n: int, k: int, draws: Sequence[int]) -> list[int]:
    """The positions ``choice(n, k, replace=False)`` selects, given its
    draws (see :func:`_choice_highs`), in ascending order."""
    if _tail_shuffle(n, k):
        order = list(range(n))
        for i, j in zip(range(n - 1, 0, -1), draws):
            order[i], order[j] = order[j], order[i]
        return sorted(order[n - k:])
    picked: set[int] = set()
    for j, drawn in zip(range(n - k, n), draws):
        # Floyd: a draw that repeats an earlier pick takes j instead.
        picked.add(j if drawn in picked else drawn)
    return sorted(picked)


class WorkerPool:
    """An ordered collection of workers with sampling helpers."""

    def __init__(self, workers: Sequence[Worker], seed: int | None = None):
        if not workers:
            raise ConfigurationError("a worker pool requires at least one worker")
        self._workers = list(workers)
        self._by_id = {w.worker_id: w for w in self._workers}
        if len(self._by_id) != len(self._workers):
            raise ConfigurationError("duplicate worker ids in pool")
        self.rng = np.random.default_rng(seed)

    def __len__(self) -> int:
        return len(self._workers)

    def __iter__(self) -> Iterator[Worker]:
        return iter(self._workers)

    def __contains__(self, worker_id: object) -> bool:
        return worker_id in self._by_id

    def __repr__(self) -> str:
        return f"WorkerPool<{len(self)} workers>"

    @property
    def workers(self) -> list[Worker]:
        return list(self._workers)

    @property
    def active_workers(self) -> list[Worker]:
        return [w for w in self._workers if w.active]

    def worker(self, worker_id: str) -> Worker:
        """Look up a worker by id (raises if absent)."""
        try:
            return self._by_id[worker_id]
        except KeyError:
            raise NoWorkersAvailableError(f"no worker {worker_id!r} in pool") from None

    def deactivate(self, worker_id: str) -> None:
        """Eliminate a worker (qualification failure, spammer detection)."""
        self.worker(worker_id).active = False

    def add_worker(self, worker: Worker) -> Worker:
        """Admit a new worker mid-run (churn arrivals, pool maintenance)."""
        if worker.worker_id in self._by_id:
            raise ConfigurationError(f"worker {worker.worker_id!r} already in pool")
        self._workers.append(worker)
        self._by_id[worker.worker_id] = worker
        return worker

    def sample(self, k: int, exclude: Collection[str] = frozenset()) -> list[Worker]:
        """Sample *k* distinct active workers uniformly, excluding ids in *exclude*.

        Raises NoWorkersAvailableError, before drawing, when fewer than *k*
        are eligible.
        """
        eligible = [w for w in self._workers if w.active and w.worker_id not in exclude]
        if len(eligible) < k:
            raise NoWorkersAvailableError(
                f"requested {k} workers but only {len(eligible)} eligible"
            )
        return self.draw([(eligible, k)])[0]

    def draw(self, requests: Sequence[tuple[Sequence[Worker], int]]) -> list[list[Worker]]:
        """For each ``(candidates, k)`` request, *k* distinct candidates
        drawn uniformly, in candidate order.

        Every request picks what ``rng.choice(len(candidates), k,
        replace=False)`` would, and the pool's generator ends where that
        many successive ``choice`` calls leave it: ``choice`` makes bounded
        integer draws whose bounds depend only on ``(n, k)``, so one
        ``rng.integers`` call over all the requests' bounds makes the same
        draws in the same order.
        """
        bounds: list[tuple[int, ...]] = []
        highs: list[int] = []
        for candidates, k in requests:
            if not 0 <= k <= len(candidates):
                raise ValueError(f"cannot draw {k} of {len(candidates)} candidates")
            bounds.append(_choice_highs(len(candidates), k))
            highs += bounds[-1]
        if len(highs) > 1:
            draws = self.rng.integers(0, np.fromiter(highs, np.int64, len(highs))).tolist()
        else:  # numpy's scalar path makes the same draw without broadcasting
            draws = [int(self.rng.integers(0, high)) for high in highs]
        picks: list[list[Worker]] = []
        at = 0
        for (candidates, k), used in zip(requests, bounds):
            positions = _choice_picks(len(candidates), k, draws[at:at + len(used)])
            picks.append([candidates[i] for i in positions])
            at += len(used)
        return picks

    def round_robin(self) -> Iterator[Worker]:
        """Endless round-robin over active workers (arrival order proxy)."""
        while True:
            actives = self.active_workers
            if not actives:
                raise NoWorkersAvailableError("no active workers remain")
            for worker in actives:
                if worker.active:
                    yield worker

    def arrivals(self, horizon: float) -> list[tuple[float, Worker]]:
        """Simulate Poisson arrivals of active workers up to *horizon* seconds.

        Returns (time, worker) pairs sorted by time — the raw material for
        the latency experiments.
        """
        events: list[tuple[float, Worker]] = []
        for worker in self.active_workers:
            t = 0.0
            while True:
                t += worker.latency.inter_arrival(self.rng)
                if t > horizon:
                    break
                events.append((t, worker))
        events.sort(key=lambda pair: pair[0])
        return events

    # ------------------------------------------------------------------ #
    # Factory presets
    # ------------------------------------------------------------------ #

    @classmethod
    def uniform(cls, n: int, accuracy: float = 0.8, seed: int | None = None) -> "WorkerPool":
        """Homogeneous one-coin pool."""
        return cls([Worker(model=OneCoinModel(accuracy)) for _ in range(n)], seed=seed)

    @classmethod
    def heterogeneous(
        cls,
        n: int,
        accuracy_low: float = 0.55,
        accuracy_high: float = 0.95,
        seed: int | None = None,
    ) -> "WorkerPool":
        """One-coin pool with accuracies spread uniformly over a range."""
        rng = np.random.default_rng(seed)
        accs = rng.uniform(accuracy_low, accuracy_high, size=n)
        return cls([Worker(model=OneCoinModel(float(a))) for a in accs], seed=seed)

    @classmethod
    def with_spammers(
        cls,
        n: int,
        spammer_fraction: float,
        good_accuracy: float = 0.85,
        seed: int | None = None,
    ) -> "WorkerPool":
        """Pool of reliable workers contaminated with uniform spammers."""
        if not 0.0 <= spammer_fraction <= 1.0:
            raise ConfigurationError("spammer_fraction must be in [0, 1]")
        n_spam = int(round(n * spammer_fraction))
        if spammer_fraction > 0.0 and n >= 1 and n_spam == 0:
            # A nonzero contamination request must contaminate: round(0.1*4)
            # would otherwise silently yield a clean pool.
            n_spam = 1
        workers: list[Worker] = []
        for i in range(n):
            model: AnswerModel
            if i < n_spam:
                model = SpammerModel()
            else:
                model = OneCoinModel(good_accuracy)
            workers.append(Worker(model=model))
        return cls(workers, seed=seed)

    @classmethod
    def glad_spectrum(
        cls,
        n: int,
        ability_mean: float = 1.5,
        ability_std: float = 1.0,
        seed: int | None = None,
    ) -> "WorkerPool":
        """Pool with normally distributed GLAD abilities."""
        rng = np.random.default_rng(seed)
        abilities = rng.normal(ability_mean, ability_std, size=n)
        return cls([Worker(model=GladModel(float(a))) for a in abilities], seed=seed)

    @classmethod
    def comparison_pool(
        cls,
        n: int,
        sharpness: float = 4.0,
        seed: int | None = None,
    ) -> "WorkerPool":
        """Pool of Bradley–Terry comparison workers for sort/top-k."""
        return cls([Worker(model=ComparisonNoiseModel(sharpness)) for _ in range(n)], seed=seed)

    @classmethod
    def confusion_pool(
        cls,
        n: int,
        matrix_factory: Callable[[np.random.Generator], ConfusionMatrixModel],
        seed: int | None = None,
    ) -> "WorkerPool":
        """Pool whose per-worker confusion matrices come from a factory."""
        rng = np.random.default_rng(seed)
        return cls([Worker(model=matrix_factory(rng)) for _ in range(n)], seed=seed)


def true_accuracy(worker: Worker) -> float | None:
    """Best-effort readout of a worker's generative accuracy (for reports)."""
    model = worker.model
    if isinstance(model, OneCoinModel):
        return model.accuracy
    if isinstance(model, SpammerModel):
        return None
    if isinstance(model, GladModel):
        # Accuracy on a difficulty-0 task.
        return 1.0 / (1.0 + np.exp(-model.ability))
    return None
