"""Crowd-powered schema matching.

Given two relation schemas, find which attributes correspond ("cust_name"
~ "customer"). The hybrid recipe the tutorial surveys:

1. machine similarity over attribute names (plus optional descriptions)
   scores all source x target pairs;
2. obviously-bad pairs are pruned;
3. the crowd verifies the survivors (yes/no tasks with redundancy);
4. a one-to-one assignment is extracted greedily from confirmed pairs,
   best-similarity first.

Ground truth for the simulated workers comes from a caller-provided
correspondence map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from repro.cost.similarity import jaccard_ngrams
from repro.errors import ConfigurationError
from repro.platform.platform import SimulatedPlatform
from repro.platform.task import Task, TaskType
from repro.quality.truth import MajorityVote, TruthInference

YES = "yes"
NO = "no"


@dataclass
class MatchingResult:
    """Outcome of a crowd schema-matching run."""

    correspondences: dict[str, str]          # source attribute -> target
    questions_asked: int
    pairs_pruned: int
    cost: float
    confirmed_pairs: list[tuple[str, str, float]] = field(default_factory=list)

    def precision_recall_f1(
        self, truth: Mapping[str, str]
    ) -> tuple[float, float, float]:
        """Correspondence-level precision/recall/F1 against ground truth."""
        predicted = set(self.correspondences.items())
        expected = set(truth.items())
        if not predicted and not expected:
            return 1.0, 1.0, 1.0
        tp = len(predicted & expected)
        precision = tp / len(predicted) if predicted else 0.0
        recall = tp / len(expected) if expected else 1.0
        if precision + recall == 0:
            return precision, recall, 0.0
        return precision, recall, 2 * precision * recall / (precision + recall)


class CrowdSchemaMatcher:
    """Hybrid machine/crowd attribute matcher.

    Args:
        platform: Marketplace.
        truth: Ground-truth correspondences (source -> target) driving the
            simulated workers; never read by the matching logic.
        similarity: Name-similarity function (default character-3-gram
            Jaccard, which survives abbreviation).
        prune_below: Pairs under this similarity skip crowd verification.
        redundancy: Votes per verified pair.
        inference: Vote aggregation.
        descriptions: Optional attribute -> description text, appended to
            names before similarity scoring and shown in task prompts.
    """

    def __init__(
        self,
        platform: SimulatedPlatform,
        truth: Mapping[str, str],
        similarity: Callable[[str, str], float] = jaccard_ngrams,
        prune_below: float = 0.15,
        redundancy: int = 3,
        inference: TruthInference | None = None,
        descriptions: Mapping[str, str] | None = None,
    ):
        if not 0.0 <= prune_below <= 1.0:
            raise ConfigurationError("prune_below must be in [0, 1]")
        if redundancy < 1:
            raise ConfigurationError("redundancy must be >= 1")
        self.platform = platform
        self.truth = dict(truth)
        self.similarity = similarity
        self.prune_below = prune_below
        self.redundancy = redundancy
        self.inference = inference or MajorityVote()
        self.descriptions = dict(descriptions or {})

    def _text(self, attribute: str) -> str:
        description = self.descriptions.get(attribute, "")
        return f"{attribute} {description}".strip()

    def run(
        self,
        source_attributes: Sequence[str],
        target_attributes: Sequence[str],
    ) -> MatchingResult:
        """Match source attributes to target attributes (1:1)."""
        if not source_attributes or not target_attributes:
            raise ConfigurationError("both schemas need attributes")
        before = self.platform.stats.cost_spent

        scored = []
        pruned = 0
        for source in source_attributes:
            for target in target_attributes:
                score = self.similarity(self._text(source), self._text(target))
                if score < self.prune_below:
                    pruned += 1
                else:
                    scored.append((score, source, target))
        scored.sort(reverse=True)

        confirmed: list[tuple[str, str, float]] = []
        questions = 0
        for score, source, target in scored:
            task = Task(
                TaskType.SINGLE_CHOICE,
                question=(
                    f"Do these columns mean the same thing? "
                    f"A: {self._text(source)} | B: {self._text(target)}"
                ),
                options=(YES, NO),
                truth=YES if self.truth.get(source) == target else NO,
            )
            collected = self.platform.collect([task], redundancy=self.redundancy)
            questions += 1
            # A pair whose question got no answers is not confirmed.
            if self.inference.infer_answered(collected).truths.get(task.task_id) == YES:
                confirmed.append((source, target, score))

        # Greedy 1:1 extraction, best machine similarity first.
        correspondences: dict[str, str] = {}
        used_targets: set[str] = set()
        for source, target, _score in sorted(confirmed, key=lambda t: -t[2]):
            if source in correspondences or target in used_targets:
                continue
            correspondences[source] = target
            used_targets.add(target)

        return MatchingResult(
            correspondences=correspondences,
            questions_asked=questions,
            pairs_pruned=pruned,
            cost=self.platform.stats.cost_spent - before,
            confirmed_pairs=confirmed,
        )
