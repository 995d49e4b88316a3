"""Pricing policies and the price→latency response model.

The tutorial's latency-control section identifies *reward* as the main lever
a requester has over completion time: higher pay attracts workers faster.
:class:`PricingPolicy` sets per-task rewards; :class:`PriceResponseModel`
maps a reward to a worker arrival-rate multiplier, the standard log-linear
supply response used in the surveyed latency models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.errors import ConfigurationError
from repro.platform.task import Task, TaskType


@dataclass
class PricingPolicy:
    """Per-task-type rewards with a default fallback.

    Example:
        >>> policy = PricingPolicy(default=0.02, by_type={TaskType.COMPARE: 0.01})
        >>> policy.price(Task(TaskType.FILL, question="q"))
        0.02
    """

    default: float = 0.01
    by_type: dict[TaskType, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.default < 0 or any(v < 0 for v in self.by_type.values()):
            raise ConfigurationError("rewards must be non-negative")

    def price(self, task: Task) -> float:
        """Reward for one assignment of *task*."""
        return self.price_of(task.task_type)

    def price_of(self, task_type: TaskType) -> float:
        """Reward for one assignment of a *task_type* task."""
        return self.by_type.get(task_type, self.default)

    def apply(self, tasks: list[Task]) -> None:
        """Stamp rewards onto *tasks* in place."""
        for task in tasks:
            task.reward = self.price(task)

    def total_cost(self, tasks: list[Task], redundancy: int = 1) -> float:
        """Cost of publishing *tasks* with the given answer redundancy."""
        return sum(self.price(t) for t in tasks) * redundancy


@dataclass
class PriceResponseModel:
    """Log-linear supply response: rate multiplier = 1 + elasticity*ln(r/r0).

    *reference_reward* (r0) is the reward at which the pool's nominal
    arrival rates hold. The multiplier is clamped to [floor, ceiling] so
    pathological rewards cannot produce negative or unbounded supply.
    """

    reference_reward: float = 0.01
    elasticity: float = 0.6
    floor: float = 0.1
    ceiling: float = 5.0

    def __post_init__(self) -> None:
        if self.reference_reward <= 0:
            raise ConfigurationError("reference_reward must be positive")
        if self.floor <= 0 or self.ceiling < self.floor:
            raise ConfigurationError("need 0 < floor <= ceiling")

    def rate_multiplier(self, reward: float) -> float:
        """Arrival-rate multiplier for a given per-task reward."""
        if reward <= 0:
            return self.floor
        raw = 1.0 + self.elasticity * math.log(reward / self.reference_reward)
        return min(self.ceiling, max(self.floor, raw))

    def expected_speedup(self, reward: float) -> float:
        """Expected completion-time speedup vs. the reference reward.

        With Poisson arrivals, makespan scales inversely with arrival rate,
        so the speedup equals the rate multiplier.
        """
        return self.rate_multiplier(reward)
