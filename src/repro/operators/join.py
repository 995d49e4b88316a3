"""Crowd-powered join / entity resolution (the CrowdER pattern).

Find which records refer to the same real-world entity. Three escalating
configurations, matching the cost-control narrative:

1. **crowd-all-pairs** — ask the crowd about every pair (quadratic cost,
   the baseline nobody ships).
2. **machine pruning** — :class:`~repro.cost.pruning.SimilarityPruner`
   discards obviously-non-matching pairs; the crowd verifies survivors.
3. **pruning + transitivity** — additionally deduce answers from the
   match closure (:class:`~repro.cost.deduction.TransitiveResolver`),
   asking only pairs deduction cannot settle.

Every crowd question is a yes/no SINGLE_CHOICE task answered with
*redundancy* votes and aggregated by a pluggable truth-inference method.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.cost.deduction import TransitiveResolver
from repro.cost.pruning import CandidatePair, PruningReport, SimilarityPruner
from repro.errors import ConfigurationError
from repro.obs.instrument import operator_span
from repro.platform.platform import SimulatedPlatform
from repro.platform.task import Task, TaskType
from repro.quality.truth import MajorityVote, TruthInference

YES = "yes"
NO = "no"


@dataclass
class JoinResult:
    """Outcome of a crowd join / entity-resolution run."""

    matched_pairs: set[tuple[int, int]]
    clusters: list[set[int]]
    pairs_considered: int
    questions_asked: int
    answers_bought: int
    cost: float
    pruning_report: PruningReport | None = None
    deduced_pairs: int = 0

    def precision_recall_f1(
        self, true_pairs: set[tuple[int, int]]
    ) -> tuple[float, float, float]:
        """Pair-level precision/recall/F1 against ground-truth match pairs."""
        predicted = {(min(a, b), max(a, b)) for a, b in self.matched_pairs}
        truth = {(min(a, b), max(a, b)) for a, b in true_pairs}
        if not predicted and not truth:
            return 1.0, 1.0, 1.0
        tp = len(predicted & truth)
        precision = tp / len(predicted) if predicted else 0.0
        recall = tp / len(truth) if truth else 1.0
        if precision + recall == 0:
            return precision, recall, 0.0
        return precision, recall, 2 * precision * recall / (precision + recall)


class CrowdJoin:
    """Configurable crowd entity-resolution pipeline.

    Args:
        platform: Marketplace for verification questions.
        truth_fn: ``(record_a, record_b) -> bool`` ground truth (drives the
            simulated workers; the pipeline itself never reads it).
        pruner: Machine pruning stage; None = crowd-all-pairs.
        use_transitivity: Deduce pair labels from the match closure.
        redundancy: Votes per crowd question.
        inference: Aggregation method for the votes (default majority).
        key: Renders a record for the task question text.
    """

    def __init__(
        self,
        platform: SimulatedPlatform,
        truth_fn: Callable[[Any, Any], bool],
        pruner: SimilarityPruner | None = None,
        use_transitivity: bool = False,
        redundancy: int = 3,
        inference: TruthInference | None = None,
        key: Callable[[Any], str] = str,
    ):
        if redundancy < 1:
            raise ConfigurationError("redundancy must be >= 1")
        self.platform = platform
        self.truth_fn = truth_fn
        self.pruner = pruner
        self.use_transitivity = use_transitivity
        self.redundancy = redundancy
        self.inference = inference or MajorityVote()
        self.key = key

    # ------------------------------------------------------------------ #

    def _candidate_pairs(
        self, records: Sequence[Any]
    ) -> tuple[list[CandidatePair], PruningReport | None]:
        if self.pruner is not None:
            return self.pruner.candidate_pairs(records)
        n = len(records)
        pairs = [
            CandidatePair(i, j, 1.0) for i in range(n) for j in range(i + 1, n)
        ]
        return pairs, None

    def _pair_task(self, records: Sequence[Any], i: int, j: int) -> Task:
        return Task(
            TaskType.SINGLE_CHOICE,
            question=(
                f"Do these refer to the same entity? "
                f"A: {self.key(records[i])} | B: {self.key(records[j])}"
            ),
            options=(YES, NO),
            payload={"left_index": i, "right_index": j},
            truth=YES if self.truth_fn(records[i], records[j]) else NO,
        )

    def _verify_batch(
        self, records: Sequence[Any], pairs: Sequence[tuple[int, int]]
    ) -> list[bool]:
        """Buy *redundancy* votes on each pair as one batch and aggregate."""
        tasks = [self._pair_task(records, i, j) for i, j in pairs]
        collected = self.platform.collect(tasks, redundancy=self.redundancy)
        verdicts: list[bool] = []
        for task in tasks:
            answers = collected.get(task.task_id, [])
            if not answers:
                # Skip/degrade failure policy: no evidence — conservatively
                # treat the pair as a non-match rather than crashing.
                verdicts.append(False)
                continue
            result = self.inference.infer({task.task_id: answers})
            verdicts.append(result.truths[task.task_id] == YES)
        return verdicts

    # ------------------------------------------------------------------ #

    def run(self, records: Sequence[Any]) -> JoinResult:
        """Resolve *records*; returns matches, clusters, and accounting."""
        with operator_span(
            self.platform,
            "join",
            records=len(records),
            pruned=self.pruner is not None,
            transitivity=self.use_transitivity,
        ) as span:
            result = self._resolve(records)
            span.set_tag("questions", result.questions_asked)
            span.set_tag("matched", len(result.matched_pairs))
            span.set_tag("deduced", result.deduced_pairs)
            return result

    def _resolve(self, records: Sequence[Any]) -> JoinResult:
        before_cost = self.platform.stats.cost_spent
        before_answers = self.platform.stats.answers_collected
        pairs, report = self._candidate_pairs(records)

        resolver = TransitiveResolver(strict=False)
        matched: set[tuple[int, int]] = set()
        questions = 0
        deduced = 0
        # Pairs go to the crowd in chunks (descending similarity when
        # pruned). Sequentially the chunk is a single pair, so every verdict
        # can deduce the next; under a parallel runtime a whole batch is
        # posted at once — deduction then only sees verdicts from earlier
        # chunks, trading a few extra questions for round-parallelism.
        chunk_size = (
            self.platform.scheduler.config.batch_size
            if self.platform.parallel_batching
            else 1
        )
        for start in range(0, len(pairs), chunk_size):
            chunk = pairs[start : start + chunk_size]
            unresolved: list[tuple[int, int]] = []
            for pair in chunk:
                i, j = pair.left_index, pair.right_index
                verdict: bool | None = None
                if self.use_transitivity:
                    verdict = resolver.infer(i, j)
                if verdict is None:
                    unresolved.append((i, j))
                else:
                    deduced += 1
                    if verdict:
                        matched.add((min(i, j), max(i, j)))
            if not unresolved:
                continue
            verdicts = self._verify_batch(records, unresolved)
            questions += len(unresolved)
            for (i, j), verdict in zip(unresolved, verdicts):
                if verdict:
                    resolver.record_match(i, j)
                    matched.add((min(i, j), max(i, j)))
                else:
                    resolver.record_nonmatch(i, j)

        # Matches imply clusters; transitive closure over matched pairs.
        closure = TransitiveResolver(strict=False)
        for i, j in matched:
            closure.record_match(i, j)
        clusters = closure.clusters(range(len(records)))
        # Closure may imply matches for pruned-away pairs; include them so
        # cluster semantics and pair semantics agree.
        for cluster in clusters:
            ordered = sorted(cluster)
            for x in range(len(ordered)):
                for y in range(x + 1, len(ordered)):
                    matched.add((ordered[x], ordered[y]))

        return JoinResult(
            matched_pairs=matched,
            clusters=clusters,
            pairs_considered=len(pairs),
            questions_asked=questions,
            answers_bought=self.platform.stats.answers_collected - before_answers,
            cost=self.platform.stats.cost_spent - before_cost,
            pruning_report=report,
            deduced_pairs=deduced,
        )


def crossing_join(
    platform: SimulatedPlatform,
    left: Sequence[Any],
    right: Sequence[Any],
    truth_fn: Callable[[Any, Any], bool],
    pruner: SimilarityPruner | None = None,
    redundancy: int = 3,
    inference: TruthInference | None = None,
    key: Callable[[Any], str] = str,
) -> JoinResult:
    """Bipartite crowd join between two relations (CROWDJOIN in CrowdSQL).

    Same machinery as :class:`CrowdJoin` but over left x right pairs; the
    returned indexes are (left_index, len(left) + right_index).
    """
    with operator_span(
        platform, "join", kind="crossing", left=len(left), right=len(right)
    ) as span:
        result = _crossing_join(
            platform, left, right, truth_fn, pruner, redundancy, inference, key
        )
        span.set_tag("questions", result.questions_asked)
        span.set_tag("matched", len(result.matched_pairs))
        return result


def _crossing_join(
    platform: SimulatedPlatform,
    left: Sequence[Any],
    right: Sequence[Any],
    truth_fn: Callable[[Any, Any], bool],
    pruner: SimilarityPruner | None,
    redundancy: int,
    inference: TruthInference | None,
    key: Callable[[Any], str],
) -> JoinResult:
    inference = inference or MajorityVote()
    before_cost = platform.stats.cost_spent
    before_answers = platform.stats.answers_collected
    if pruner is not None:
        pairs, report = pruner.cross_pairs(left, right)
    else:
        pairs = [
            CandidatePair(i, j, 1.0)
            for i in range(len(left))
            for j in range(len(right))
        ]
        report = None
    matched: set[tuple[int, int]] = set()
    questions = 0
    tasks = []
    for pair in pairs:
        a, b = left[pair.left_index], right[pair.right_index]
        tasks.append(
            Task(
                TaskType.SINGLE_CHOICE,
                question=f"Same entity? A: {key(a)} | B: {key(b)}",
                options=(YES, NO),
                truth=YES if truth_fn(a, b) else NO,
            )
        )
    collected = platform.collect(tasks, redundancy=redundancy) if tasks else {}
    for pair, task in zip(pairs, tasks):
        questions += 1
        # Skip/degrade failure policy: an unanswered pair gets no verdict
        # and is not matched.
        verdict = inference.infer_answered({task.task_id: collected.get(task.task_id, [])})
        if verdict.truths.get(task.task_id) == YES:
            matched.add((pair.left_index, len(left) + pair.right_index))
    clusters_resolver = TransitiveResolver(strict=False)
    for i, j in matched:
        clusters_resolver.record_match(i, j)
    clusters = clusters_resolver.clusters(range(len(left) + len(right)))
    return JoinResult(
        matched_pairs=matched,
        clusters=clusters,
        pairs_considered=len(pairs),
        questions_asked=questions,
        answers_bought=platform.stats.answers_collected - before_answers,
        cost=platform.stats.cost_spent - before_cost,
        pruning_report=report,
    )
