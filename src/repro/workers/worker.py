"""Workers: an answer model plus timing behaviour."""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from repro.errors import ConfigurationError
from repro.platform.task import Answer, Task
from repro.workers.models import AnswerModel, OneCoinModel

_worker_counter = itertools.count(1)


@dataclass(frozen=True)
class LatencyModel:
    """Lognormal task service time plus exponential think/arrival gaps.

    ``mean_seconds`` is the median service time; ``sigma`` the lognormal
    shape. ``arrival_rate`` (tasks/second the worker is willing to start)
    drives the discrete-event simulation in :mod:`repro.platform.events`.
    """

    mean_seconds: float = 30.0
    sigma: float = 0.5
    arrival_rate: float = 1.0 / 45.0

    def __post_init__(self) -> None:
        if self.mean_seconds <= 0 or self.sigma < 0 or self.arrival_rate <= 0:
            raise ConfigurationError("latency parameters must be positive")
        # The lognormal's log-scale location, taken once (frozen: it cannot go stale).
        object.__setattr__(self, "_log_mean", np.log(self.mean_seconds))

    def service_time(self, rng: np.random.Generator) -> float:
        """Sample a lognormal task service time, seconds."""
        return float(rng.lognormal(mean=self._log_mean, sigma=self.sigma))

    def inter_arrival(self, rng: np.random.Generator) -> float:
        """Sample an exponential gap until this worker's next arrival."""
        return float(rng.exponential(1.0 / self.arrival_rate))


@dataclass
class Worker:
    """A simulated crowd worker.

    Attributes:
        worker_id: Unique id.
        model: The :class:`~repro.workers.models.AnswerModel` generating
            answer values.
        latency: Timing behaviour.

    A worker keeps no record of its answers: the platform's answer log
    (:attr:`~repro.platform.platform.SimulatedPlatform.answers`) is the
    one place a delivered answer is booked.
    """

    model: AnswerModel = field(default_factory=lambda: OneCoinModel(0.8))
    latency: LatencyModel = field(default_factory=LatencyModel)
    worker_id: str = field(default_factory=lambda: f"w{next(_worker_counter)}")
    active: bool = True

    def submit(
        self,
        task: Task,
        rng: np.random.Generator,
        now: float = 0.0,
    ) -> Answer:
        """Answer *task*: draw a service time, then a value from the model."""
        duration = self.latency.service_time(rng)
        value = self.model.answer(task, rng)
        return Answer(task.task_id, self.worker_id, value, now + duration, duration, task.reward)
