"""Checkpoint-at-batch-boundary execution and the kill-and-resume harness.

:class:`CheckpointingRunner` wraps :class:`~repro.platform.batch.
BatchScheduler` so a long crowd run survives process death: tasks are
dispatched chunk by chunk (one scheduler batch per chunk), and after
every ``interval`` chunks the full run state is checkpointed to disk.
``kill_after`` raises :class:`~repro.errors.SimulatedCrash` at a chunk
boundary — the harness equivalent of ``kill -9`` — after which a *fresh*
runner (in a fresh process, or over a freshly built platform) continues
from the checkpoint via ``resume=True``.

Determinism contract: a killed-and-resumed run produces answers, failure
records, and platform stats **bit-identical** to an uninterrupted run of
the same configuration and seed. This works because every random decision
downstream of a chunk boundary depends only on state the checkpoint
captures (platform/pool RNG states, the scheduler's stream counter and
clock, pool membership) — see ``tests/test_recovery.py``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from repro.errors import CheckpointError, SimulatedCrash
from repro.recovery.checkpoint import Checkpoint
from repro.recovery.degrade import FailureInfo, FailurePolicy

if TYPE_CHECKING:
    from repro.platform.platform import SimulatedPlatform
    from repro.platform.task import Answer, Task
    from repro.quality.truth.base import TruthInference


@dataclass
class RunOutcome:
    """What a (possibly resumed) checkpointed run produced."""

    answers: dict[str, "list[Answer]"] = field(default_factory=dict)
    failures: dict[str, FailureInfo] = field(default_factory=dict)
    chunks_done: int = 0
    resumed: bool = False


class CheckpointingRunner:
    """Run tasks through the batch scheduler, checkpointing at chunk boundaries.

    Args:
        platform: Platform whose :class:`BatchScheduler` runs the chunks.
        checkpoint_dir: Directory snapshots are written to (one snapshot,
            overwritten atomically as the run advances).
        redundancy: Answers per task.
        interval: Checkpoint every this-many chunks (>= 1).
        inference: Optional truth-inference instance whose EM state is
            included in snapshots and warm-started on resume.
    """

    def __init__(
        self,
        platform: "SimulatedPlatform",
        checkpoint_dir: "Path | str",
        redundancy: int = 3,
        interval: int = 1,
        inference: "TruthInference | None" = None,
    ):
        if interval < 1:
            raise CheckpointError(f"checkpoint interval must be >= 1, got {interval}")
        self.platform = platform
        self.checkpoint_dir = Path(checkpoint_dir)
        self.redundancy = redundancy
        self.interval = interval
        self.inference = inference

    def run(
        self,
        tasks: "Sequence[Task]",
        resume: bool = False,
        kill_after: int | None = None,
    ) -> RunOutcome:
        """Dispatch every task, checkpointing as configured.

        With ``resume=True``, the checkpoint in ``checkpoint_dir`` is
        restored first and already-completed chunks are skipped; *tasks*
        must be the same (deterministically regenerated) task list with
        the same explicit ids as the original run. ``kill_after=k``
        raises :class:`SimulatedCrash` once *k* chunks have completed
        (after their checkpoint is written).
        """
        scheduler = self.platform.scheduler
        size = scheduler.config.batch_size
        chunks = [list(tasks[i : i + size]) for i in range(0, len(tasks), size)]
        outcome = RunOutcome(resumed=resume)
        start = 0
        if resume:
            start = self._restore(tasks, outcome)
        for index in range(start, len(chunks)):
            chunk = chunks[index]
            result = scheduler.run(chunk, redundancy=self.redundancy)
            outcome.answers.update(result.answers)
            outcome.failures.update(result.failures)
            outcome.chunks_done = index + 1
            last = index == len(chunks) - 1
            if outcome.chunks_done % self.interval == 0 or last:
                self._save(outcome, total_chunks=len(chunks))
            if kill_after is not None and outcome.chunks_done >= kill_after and not last:
                raise SimulatedCrash(
                    f"simulated kill after chunk {outcome.chunks_done}/{len(chunks)}"
                )
        return outcome

    def _save(self, outcome: RunOutcome, total_chunks: int) -> None:
        extra = {
            "chunks_done": outcome.chunks_done,
            "total_chunks": total_chunks,
            "redundancy": self.redundancy,
            "failures": {
                task_id: {
                    "reason": info.reason,
                    "attempts": info.attempts,
                    "outcomes": list(info.outcomes),
                }
                for task_id, info in outcome.failures.items()
            },
        }
        Checkpoint.capture(
            self.platform, inference=self.inference, extra=extra
        ).save(self.checkpoint_dir)

    def _restore(self, tasks: "Sequence[Task]", outcome: RunOutcome) -> int:
        checkpoint = Checkpoint.load(self.checkpoint_dir)
        checkpoint.restore(self.platform, inference=self.inference)
        extra = checkpoint.extra
        if extra.get("redundancy", self.redundancy) != self.redundancy:
            raise CheckpointError(
                f"checkpoint was taken at redundancy {extra.get('redundancy')}, "
                f"runner configured with {self.redundancy}"
            )
        # Answers for completed chunks come back from the restored log;
        # completed tasks keep their full per-task answer lists.
        chunks_done = int(extra.get("chunks_done", 0))
        size = self.platform.scheduler.config.batch_size
        for task in tasks[: chunks_done * size]:
            outcome.answers[task.task_id] = self.platform.answers_for(task.task_id)
        for task_id, info in extra.get("failures", {}).items():
            outcome.failures[task_id] = FailureInfo(
                task_id,
                reason=info["reason"],
                attempts=info.get("attempts", 0),
                outcomes=list(info.get("outcomes", [])),
            )
        policy = FailurePolicy.parse(self.platform.scheduler.config.failure_policy)
        if policy is FailurePolicy.SKIP:
            for task_id in outcome.failures:
                outcome.answers.pop(task_id, None)
        outcome.chunks_done = chunks_done
        return chunks_done
