"""Crowd-powered MAX and top-k (tournament algorithms).

Finding the best item does not require a full sort: a single-elimination
tournament uses n-1 pairwise "games" (fan-in 2), or fewer rounds with wider
groups judged by round-robin within the group. Top-k repeats the tournament
with the comparator's cache so each subsequent winner costs only the
replayed path, the standard heap-of-tournaments trick.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.latency.rounds import rounds_lower_bound
from repro.obs.instrument import operator_span
from repro.operators.sort import CrowdComparator


@dataclass
class TopKResult:
    """Outcome of a crowd max/top-k run."""

    winners: list[int]            # item indices, best first
    comparisons_asked: int
    answers_bought: int
    cost: float
    rounds: int


def _group_winner(comparator: CrowdComparator, group: list[int]) -> int:
    """Round-robin within a group; Copeland winner (position tie-break)."""
    if len(group) == 1:
        return group[0]
    wins = {idx: 0 for idx in group}
    for x in range(len(group)):
        for y in range(x + 1, len(group)):
            if comparator.above(group[x], group[y]):
                wins[group[x]] += 1
            else:
                wins[group[y]] += 1
    return max(group, key=lambda idx: (wins[idx], -group.index(idx)))


def tournament_max(
    comparator: CrowdComparator,
    fan_in: int = 2,
    candidates: list[int] | None = None,
) -> TopKResult:
    """Single-elimination tournament over the items.

    Args:
        comparator: The (caching) crowd comparator.
        fan_in: Group size per round; larger = fewer rounds (lower latency)
            but more comparisons per round (higher cost).
        candidates: Restrict to a subset of item indices.
    """
    if fan_in < 2:
        raise ConfigurationError("fan_in must be >= 2")
    pool = list(candidates) if candidates is not None else list(range(len(comparator.items)))
    if not pool:
        raise ConfigurationError("no candidates to run a tournament over")
    with operator_span(
        comparator.platform, "topk", strategy="max", items=len(pool), fan_in=fan_in
    ) as span:
        before_cost = comparator.platform.stats.cost_spent
        before_asked = comparator.comparisons_asked
        before_answers = comparator.answers_bought
        remaining = pool
        rounds = 0
        while len(remaining) > 1:
            groups = [remaining[s : s + fan_in] for s in range(0, len(remaining), fan_in)]
            # One tournament round = one scheduler run: all intra-group games
            # of the round are independent, so they are bought together.
            comparator.prefetch(
                [
                    (group[x], group[y])
                    for group in groups
                    for x in range(len(group))
                    for y in range(x + 1, len(group))
                ]
            )
            remaining = [_group_winner(comparator, group) for group in groups]
            rounds += 1
        span.set_tag("rounds", rounds)
        return TopKResult(
            winners=[remaining[0]],
            comparisons_asked=comparator.comparisons_asked - before_asked,
            answers_bought=comparator.answers_bought - before_answers,
            cost=comparator.platform.stats.cost_spent - before_cost,
            rounds=rounds,
        )


def topk_tournament(
    comparator: CrowdComparator,
    k: int,
    fan_in: int = 2,
) -> TopKResult:
    """Top-k by repeated tournaments with comparison reuse.

    After extracting a winner, it is removed and the tournament re-runs
    over the remainder; the comparator's cache means only comparisons along
    the removed winner's path are newly purchased (O(log n) per extra
    winner at fan-in 2).
    """
    if k < 1:
        raise ConfigurationError("k must be >= 1")
    n = len(comparator.items)
    if k > n:
        raise ConfigurationError(f"k={k} exceeds {n} items")
    with operator_span(
        comparator.platform, "topk", strategy="topk", items=n, k=k, fan_in=fan_in
    ) as span:
        before_cost = comparator.platform.stats.cost_spent
        before_asked = comparator.comparisons_asked
        before_answers = comparator.answers_bought
        winners: list[int] = []
        candidates = list(range(n))
        total_rounds = 0
        for _ in range(k):
            result = tournament_max(comparator, fan_in=fan_in, candidates=candidates)
            winner = result.winners[0]
            winners.append(winner)
            candidates = [c for c in candidates if c != winner]
            total_rounds += result.rounds
            if not candidates:
                break
        span.set_tag("rounds", total_rounds)
        return TopKResult(
            winners=winners,
            comparisons_asked=comparator.comparisons_asked - before_asked,
            answers_bought=comparator.answers_bought - before_answers,
            cost=comparator.platform.stats.cost_spent - before_cost,
            rounds=total_rounds,
        )


def expected_tournament_cost(n_items: int, fan_in: int) -> tuple[int, int]:
    """(comparisons, rounds) a fan-in-f tournament needs for MAX over n items.

    Comparisons: each group of size g plays g*(g-1)/2 games; summed over
    rounds. Rounds: ceil(log_f n).
    """
    if n_items < 1 or fan_in < 2:
        raise ConfigurationError("need n_items >= 1 and fan_in >= 2")
    comparisons = 0
    remaining = n_items
    while remaining > 1:
        groups_of_f, leftover = divmod(remaining, fan_in)
        comparisons += groups_of_f * (fan_in * (fan_in - 1) // 2)
        if leftover > 1:
            comparisons += leftover * (leftover - 1) // 2
        remaining = groups_of_f + (1 if leftover else 0)
    return comparisons, rounds_lower_bound(n_items, fan_in)
