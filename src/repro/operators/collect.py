"""Open-world crowd collection (CrowdDB's CROWD TABLE semantics).

Enumeration queries — "list all ice-cream flavors", "find every restaurant
in this district" — have no machine-known universe. Workers contribute
items; duplicates accumulate; and the requester's real question becomes
*when to stop paying*. The surveyed answer is species estimation from the
duplicate structure:

* :func:`good_turing_coverage` — Good–Turing sample coverage: the chance
  the next answer is something already seen.
* :func:`chao92_estimate` — Chao's coverage-based richness estimator
  (the one the crowd-enumeration literature adopted), with :func:`chao84_estimate`
  as the simpler f1^2/(2 f2) variant.

:class:`CrowdCollect` drives the loop against collector workers whose
knowledge is a Zipf-weighted subset of the true universe (popular items are
known to many workers — the skew that makes the tail expensive).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.instrument import operator_span
from repro.platform.platform import SimulatedPlatform
from repro.platform.task import Task, TaskType
from repro.workers.models import CollectorModel
from repro.workers.pool import WorkerPool


def good_turing_coverage(frequencies: Counter) -> float:
    """Estimated sample coverage: 1 - (singletons / observations)."""
    n = sum(frequencies.values())
    if n == 0:
        return 0.0
    f1 = sum(1 for c in frequencies.values() if c == 1)
    return max(0.0, 1.0 - f1 / n)


def chao84_estimate(frequencies: Counter) -> float:
    """Chao1984 lower-bound richness: D + f1^2 / (2 f2)."""
    distinct = len(frequencies)
    f1 = sum(1 for c in frequencies.values() if c == 1)
    f2 = sum(1 for c in frequencies.values() if c == 2)
    if f2 == 0:
        return distinct + f1 * (f1 - 1) / 2.0
    return distinct + f1 * f1 / (2.0 * f2)


def chao92_estimate(frequencies: Counter) -> float:
    """Chao1992 coverage-based richness estimator.

    N_hat = D / C + n (1 - C) / C * gamma^2, where C is Good–Turing
    coverage and gamma^2 the coefficient of variation of frequencies.
    Falls back to Chao84 when coverage is zero (all singletons).
    """
    n = sum(frequencies.values())
    distinct = len(frequencies)
    if n == 0:
        return 0.0
    coverage = good_turing_coverage(frequencies)
    if coverage <= 0.0:
        return chao84_estimate(frequencies)
    base = distinct / coverage
    counts = np.array(list(frequencies.values()), dtype=float)
    mean = counts.mean()
    gamma_sq = max(0.0, float(counts.var() / (mean * mean)) if mean > 0 else 0.0)
    return base + n * (1.0 - coverage) / coverage * gamma_sq


@dataclass
class CollectResult:
    """Outcome of an enumeration run."""

    items: list[Any]                     # distinct items, first-seen order
    frequencies: Counter = field(default_factory=Counter)
    queries_issued: int = 0
    cost: float = 0.0
    richness_trajectory: list[tuple[int, int, float]] = field(default_factory=list)
    # (queries, distinct_seen, chao92_estimate) checkpoints

    @property
    def distinct_count(self) -> int:
        return len(self.items)

    @property
    def coverage(self) -> float:
        return good_turing_coverage(self.frequencies)

    @property
    def estimated_richness(self) -> float:
        return chao92_estimate(self.frequencies)

    def recall_against(self, universe: Sequence[Any]) -> float:
        """Fraction of the true universe discovered."""
        if not universe:
            return 1.0
        return len(set(self.items) & set(universe)) / len(set(universe))


def bind_zipf_knowledge(
    pool: WorkerPool,
    universe: Sequence[Any],
    knowledge_size: int,
    zipf_s: float = 1.2,
    seed: int | None = None,
) -> None:
    """Give each CollectorModel worker a Zipf-weighted subset of the universe.

    Item i (0-based popularity rank) is sampled with weight (i+1)^-s, so
    every worker knows the popular head and few know the tail.
    """
    if knowledge_size < 1 or knowledge_size > len(universe):
        raise ConfigurationError("knowledge_size must be in [1, len(universe)]")
    rng = np.random.default_rng(seed)
    weights = np.array([(i + 1) ** (-zipf_s) for i in range(len(universe))])
    weights /= weights.sum()
    for worker in pool:
        if isinstance(worker.model, CollectorModel):
            picks = rng.choice(
                len(universe), size=knowledge_size, replace=False, p=weights
            )
            worker.model.bind_knowledge(tuple(universe[int(i)] for i in picks))


class CrowdCollect:
    """Open-world enumeration operator.

    Args:
        platform: Marketplace whose pool contains CollectorModel workers.
        question: The enumeration prompt.
        checkpoint_every: Record a richness checkpoint every N queries.
    """

    def __init__(
        self,
        platform: SimulatedPlatform,
        question: str,
        checkpoint_every: int = 10,
    ):
        self.platform = platform
        self.question = question
        self.checkpoint_every = max(1, checkpoint_every)

    def run(
        self,
        max_queries: int,
        stop_at_coverage: float | None = None,
    ) -> CollectResult:
        """Issue up to *max_queries* COLLECT tasks.

        Args:
            max_queries: Budget in contribution requests.
            stop_at_coverage: Optional early stop when Good–Turing coverage
                reaches this value — "pay until the crowd runs dry".
        """
        if max_queries < 1:
            raise ConfigurationError("max_queries must be >= 1")
        with operator_span(
            self.platform, "collect", max_queries=max_queries
        ) as span:
            before = self.platform.stats.cost_spent
            result = CollectResult(items=[])
            seen: set[Any] = set()
            # Under a parallel batch runtime, contribution requests go out in
            # waves of batch_size; a posted wave is paid for in full, so the
            # coverage early-stop is only evaluated between waves (the real
            # platform semantics: you cannot unpost a HIT batch).
            wave_size = (
                self.platform.scheduler.config.batch_size
                if self.platform.parallel_batching
                else 1
            )
            q = 0
            while q < max_queries:
                wave = [
                    Task(TaskType.COLLECT, question=self.question)
                    for _ in range(min(wave_size, max_queries - q))
                ]
                collected = self.platform.collect(wave, redundancy=1)
                for task in wave:
                    delivered = collected.get(task.task_id, [])
                    q += 1
                    if not delivered:
                        # Skip/degrade failure policy: a query that bought no
                        # contribution still counts as issued.
                        result.queries_issued = q
                        continue
                    answer = delivered[0]
                    result.queries_issued = q
                    if answer.value is not None:
                        result.frequencies[answer.value] += 1
                        if answer.value not in seen:
                            seen.add(answer.value)
                            result.items.append(answer.value)
                    if q % self.checkpoint_every == 0:
                        result.richness_trajectory.append(
                            (q, len(seen), chao92_estimate(result.frequencies))
                        )
                if stop_at_coverage is not None and q >= 5:
                    if good_turing_coverage(result.frequencies) >= stop_at_coverage:
                        break
            result.cost = self.platform.stats.cost_spent - before
            span.set_tag("queries", result.queries_issued)
            span.set_tag("distinct", result.distinct_count)
            span.set_tag("coverage", result.coverage)
            return result
