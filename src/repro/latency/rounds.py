"""The round model of crowdsourcing latency.

Many crowd algorithms are inherently staged: answers from round i decide
what to ask in round i+1 (tournaments, iterative sorts, adaptive filters).
Under the round model, latency is measured in *rounds*, with each round's
wall-clock duration set by its slowest task. :class:`RoundScheduler` runs a
staged computation through the platform's batch scheduler and accounts for
both views.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.errors import ConfigurationError
from repro.platform.platform import SimulatedPlatform, TimelineResult
from repro.platform.task import Answer, Task


@dataclass
class RoundRecord:
    """Timing and evidence for one executed round."""

    index: int
    tasks: int
    answers: list[Answer]
    duration: float
    completion: TimelineResult


@dataclass
class RoundOutcome:
    """Full accounting of a staged execution."""

    rounds: list[RoundRecord] = field(default_factory=list)

    @property
    def round_count(self) -> int:
        return len(self.rounds)

    @property
    def total_latency(self) -> float:
        return sum(r.duration for r in self.rounds)

    @property
    def total_answers(self) -> int:
        return sum(len(r.answers) for r in self.rounds)

    @property
    def critical_path(self) -> list[float]:
        return [r.duration for r in self.rounds]


class RoundScheduler:
    """Execute rounds of tasks, each gated on the previous round's answers.

    Each round is one :meth:`~repro.platform.batch.BatchScheduler.run`, so
    it sees faults, the failure policy, breakers and the answer cache like
    any operator; its duration is the run's makespan on the scheduler's
    simulated lanes. Under ``skip``/``degrade`` a task that got no answer
    contributes none to the round.

    Args:
        platform: Supplies workers, answers, and the simulated clock.
        redundancy: Answers per task per round.
    """

    def __init__(self, platform: SimulatedPlatform, redundancy: int = 1):
        if redundancy < 1:
            raise ConfigurationError("redundancy must be >= 1")
        self.platform = platform
        self.redundancy = redundancy

    def _run_round(self, tasks: Sequence[Task]) -> TimelineResult:
        run = self.platform.scheduler.run(tasks, redundancy=self.redundancy)
        answers = [a for t in tasks for a in run.answers.get(t.task_id, [])]
        return TimelineResult(
            makespan=run.makespan,
            answers=answers,
            completion_times=run.completion_times,
        )

    def run(
        self,
        first_round: Sequence[Task],
        next_round: Callable[[list[Answer], int], Sequence[Task]],
        max_rounds: int = 64,
    ) -> RoundOutcome:
        """Run until *next_round* returns no tasks or *max_rounds* is hit.

        Args:
            first_round: Tasks of round 0.
            next_round: Callback ``(answers_of_previous_round, round_index)
                -> tasks`` generating the next round; return an empty
                sequence to stop.
            max_rounds: Safety cap.
        """
        outcome = RoundOutcome()
        tasks = list(first_round)
        index = 0
        tracer = self.platform.tracer
        metrics = self.platform.metrics
        sim_elapsed = 0.0
        while tasks:
            if index >= max_rounds:
                raise ConfigurationError(f"exceeded max_rounds={max_rounds}")
            with tracer.span(
                "round", sim_start=sim_elapsed, index=index, tasks=len(tasks)
            ) as span:
                timeline = self._run_round(tasks)
                span.set_tag("answers", len(timeline.answers))
                span.set_tag("duration", timeline.makespan)
                span.sim_end = sim_elapsed + timeline.makespan
            sim_elapsed += timeline.makespan
            metrics.observe("round.duration", timeline.makespan)
            record = RoundRecord(
                index=index,
                tasks=len(tasks),
                answers=timeline.answers,
                duration=timeline.makespan,
                completion=timeline,
            )
            outcome.rounds.append(record)
            index += 1
            tasks = list(next_round(record.answers, index))
        return outcome


def rounds_lower_bound(n_items: int, fan_in: int) -> int:
    """Rounds a fan-in-*f* tournament needs over *n_items* (ceil log_f n)."""
    if n_items < 1 or fan_in < 2:
        raise ConfigurationError("need n_items >= 1 and fan_in >= 2")
    rounds = 0
    remaining = n_items
    while remaining > 1:
        remaining = -(-remaining // fan_in)
        rounds += 1
    return rounds
