"""Find–Fix–Verify: the canonical multi-stage crowd workflow (Soylent).

Open-ended crowd work (proofreading, shortening, rewriting) fails with a
single "fix this text" task: lazy workers under-edit and eager workers
over-edit. The Find–Fix–Verify pattern the tutorial's task-design section
highlights splits the work into three independently-agreed stages:

* **Find** — workers independently point at a problem span; only spans
  with independent agreement move on.
* **Fix** — a different set of workers proposes corrections for the agreed
  span, producing a candidate set.
* **Verify** — workers vote among the candidates (and the original), and
  the winner is applied.

This module implements the loop for word-level text correction against the
simulated platform: documents carry hidden per-position corrections, the
Find stage is a position-choice task, Fix is free-text, and Verify is a
vote. The process iterates until Find agrees there is nothing left (or a
round cap is hit).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import ConfigurationError
from repro.platform.platform import SimulatedPlatform
from repro.platform.task import Task, TaskType
from repro.quality.truth import MajorityVote, TruthInference

NO_ERROR = "none"


@dataclass
class FfvDocument:
    """A document with hidden ground-truth corrections.

    Attributes:
        words: The (possibly corrupted) text as a word list.
        corrections: position -> correct word, for each planted error.
    """

    words: list[str]
    corrections: dict[int, str] = field(default_factory=dict)

    @property
    def text(self) -> str:
        return " ".join(self.words)


@dataclass
class FfvResult:
    """Outcome of a Find–Fix–Verify run over one or more documents."""

    corrected: list[list[str]]
    find_questions: int = 0
    fix_questions: int = 0
    verify_questions: int = 0
    rounds: int = 0
    cost: float = 0.0

    @property
    def total_questions(self) -> int:
        return self.find_questions + self.fix_questions + self.verify_questions

    def residual_errors(self, documents: Sequence[FfvDocument]) -> int:
        """Planted errors still uncorrected after the run."""
        residual = 0
        for doc, words in zip(documents, self.corrected):
            for position, correct in doc.corrections.items():
                if words[position] != correct:
                    residual += 1
        return residual


class FindFixVerify:
    """Word-level Find–Fix–Verify text correction.

    Args:
        platform: Marketplace.
        find_redundancy: Answers per Find round; a position must win a
            strict majority to advance (independent agreement).
        fix_candidates: Workers asked for a correction per agreed span.
        verify_redundancy: Votes in the Verify stage.
        inference: Aggregation for Verify votes.
        max_rounds_per_document: Cap on Find rounds per document.
    """

    def __init__(
        self,
        platform: SimulatedPlatform,
        find_redundancy: int = 3,
        fix_candidates: int = 3,
        verify_redundancy: int = 3,
        inference: TruthInference | None = None,
        max_rounds_per_document: int = 10,
    ):
        if min(find_redundancy, fix_candidates, verify_redundancy) < 1:
            raise ConfigurationError("stage redundancies must be >= 1")
        if max_rounds_per_document < 1:
            raise ConfigurationError("max_rounds_per_document must be >= 1")
        self.platform = platform
        self.find_redundancy = find_redundancy
        self.fix_candidates = fix_candidates
        self.verify_redundancy = verify_redundancy
        self.inference = inference or MajorityVote()
        self.max_rounds_per_document = max_rounds_per_document

    # ------------------------------------------------------------------ #

    def _find(self, words: list[str], remaining: dict[int, str], result: FfvResult) -> int | None:
        """One Find round: agreed problem position, or None for 'clean'."""
        options = tuple([NO_ERROR] + [f"pos{p}" for p in range(len(words))])
        truth = NO_ERROR if not remaining else f"pos{min(remaining)}"
        task = Task(
            TaskType.SINGLE_CHOICE,
            question=f"Which word (if any) is wrong? Text: {' '.join(words)}",
            options=options,
            truth=truth,
        )
        answers = self.platform.collect([task], redundancy=self.find_redundancy)
        result.find_questions += self.find_redundancy
        counts = Counter(a.value for a in answers.get(task.task_id, []))
        if not counts:  # no answers landed: treat the text as clean
            return None
        winner, votes = counts.most_common(1)[0]
        # Independent agreement: a strict majority must point at the same span.
        if votes * 2 <= self.find_redundancy or winner == NO_ERROR:
            return None
        return int(str(winner)[3:])

    def _fix(self, words: list[str], position: int, correct: str | None, result: FfvResult) -> list[str]:
        """Fix stage: candidate corrections from independent workers."""
        task = Task(
            TaskType.FILL,
            question=(
                f"Suggest a replacement for word #{position} "
                f"({words[position]!r}) in: {' '.join(words)}"
            ),
            truth=correct if correct is not None else words[position],
        )
        answers = self.platform.collect([task], redundancy=self.fix_candidates)
        result.fix_questions += self.fix_candidates
        candidates = []
        for answer in answers.get(task.task_id, []):
            if answer.value and answer.value not in candidates:
                candidates.append(answer.value)
        return candidates

    def _verify(
        self,
        words: list[str],
        position: int,
        candidates: list[str],
        correct: str | None,
        result: FfvResult,
    ) -> str:
        """Verify stage: vote among candidates + the original word."""
        options = tuple(dict.fromkeys(candidates + [words[position]]))
        if len(options) == 1:
            return options[0]
        truth = correct if correct is not None and correct in options else options[0]
        task = Task(
            TaskType.SINGLE_CHOICE,
            question=(
                f"Best word for slot #{position} in: {' '.join(words)}"
            ),
            options=options,
            truth=truth,
        )
        answers = self.platform.collect([task], redundancy=self.verify_redundancy)
        result.verify_questions += self.verify_redundancy
        inferred = self.inference.infer_answered(answers)
        # No answers landed: keep the original word.
        return inferred.truths.get(task.task_id, words[position])

    # ------------------------------------------------------------------ #

    def run(self, documents: Sequence[FfvDocument]) -> FfvResult:
        """Correct *documents*; returns corrected word lists + accounting."""
        if not documents:
            raise ConfigurationError("no documents")
        before = self.platform.stats.cost_spent
        result = FfvResult(corrected=[])
        for doc in documents:
            words = list(doc.words)
            remaining = dict(doc.corrections)
            for _round in range(self.max_rounds_per_document):
                result.rounds += 1
                position = self._find(words, remaining, result)
                if position is None:
                    break
                correct = remaining.get(position)
                candidates = self._fix(words, position, correct, result)
                if candidates:
                    chosen = self._verify(words, position, candidates, correct, result)
                    words[position] = chosen
                if position in remaining and words[position] == remaining[position]:
                    del remaining[position]
            result.corrected.append(words)
        result.cost = self.platform.stats.cost_spent - before
        return result


def proofreading_dataset(
    n_documents: int = 10,
    words_per_document: int = 12,
    errors_per_document: int = 2,
    seed: int | None = None,
) -> list[FfvDocument]:
    """Documents with planted word-level corruptions and known corrections."""
    import numpy as np

    if errors_per_document >= words_per_document:
        raise ConfigurationError("need fewer errors than words")
    rng = np.random.default_rng(seed)
    vocabulary = [f"word{i:02d}" for i in range(60)]
    documents = []
    for _ in range(n_documents):
        words = [vocabulary[int(i)] for i in rng.integers(len(vocabulary), size=words_per_document)]
        positions = rng.choice(words_per_document, size=errors_per_document, replace=False)
        corrections = {}
        for position in sorted(int(p) for p in positions):
            corrections[position] = words[position]
            words[position] = words[position] + "X"  # visible corruption
        documents.append(FfvDocument(words=words, corrections=corrections))
    return documents
