"""Checkpoint/resume: JSON snapshots of the live crowd-run state.

A checkpoint captures everything a fresh process needs to continue a run
bit-identically: platform bookkeeping (budget, answer log, published
tasks, stats counters), the worker pool (membership, activity, earnings,
and both RNG states), and the batch scheduler's simulated clock and
RNG-stream counter. Truth-inference EM state rides along via the
:meth:`~repro.quality.truth.base.TruthInference.export_state` hook.

Design constraints that shaped the format:

* **Everything is JSON.** numpy's PCG64 state is a dict of plain Python
  ints, so RNG streams round-trip without pickle.
* **Worker identity is remapped by pool index.** Worker ids come from a
  process-global counter, so a resumed process reconstructs the same pool
  (same config, same seed) under different default ids; restore simply
  overwrites each worker's id with the snapshotted one, index by index.
  Churn joiners (present in the snapshot beyond the reconstructed pool)
  are rebuilt from their serialized model.
* **Answer values go through a typed codec** (tuples, frozensets, dicts
  with non-string keys survive the round trip); genuinely opaque Python
  objects raise :class:`~repro.errors.CheckpointError` instead of being
  silently mangled.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.data.schema import CNULL, is_cnull
from repro.errors import CheckpointError
from repro.platform.platform import _STAT_METRICS
from repro.platform.task import Answer, Task, TaskState, TaskType
from repro.workers.models import (
    AnswerModel,
    ComparisonNoiseModel,
    GladModel,
    OneCoinModel,
    SpammerModel,
)
from repro.workers.worker import LatencyModel, Worker

if TYPE_CHECKING:
    from repro.platform.batch import BatchScheduler
    from repro.platform.platform import SimulatedPlatform
    from repro.quality.truth.base import TruthInference
    from repro.workers.pool import WorkerPool

FORMAT_VERSION = 1

# Stats counters that are *real* wall-clock measurements: restored for
# continuity of reporting but never part of determinism comparisons.
WALL_CLOCK_STATS = ("batch_wall_clock",)


# ---------------------------------------------------------------------- #
# Value codec
# ---------------------------------------------------------------------- #

def encode_value(value: Any) -> Any:
    """Encode one answer/payload value into a JSON-safe structure."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if is_cnull(value):
        return {"__kind__": "cnull"}
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    # Defensive: columnar cell reads return plain Python scalars, but guard
    # against numpy bool_/str_ leaking in from user payloads built off arrays.
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.str_):
        return str(value)
    if isinstance(value, tuple):
        return {"__kind__": "tuple", "items": [encode_value(v) for v in value]}
    if isinstance(value, list):
        return {"__kind__": "list", "items": [encode_value(v) for v in value]}
    if isinstance(value, (frozenset, set)):
        kind = "frozenset" if isinstance(value, frozenset) else "set"
        items = sorted((encode_value(v) for v in value), key=repr)
        return {"__kind__": kind, "items": items}
    if isinstance(value, dict):
        return {
            "__kind__": "dict",
            "items": [[encode_value(k), encode_value(v)] for k, v in value.items()],
        }
    raise CheckpointError(
        f"cannot checkpoint value of type {type(value).__name__}: {value!r}"
    )


def decode_value(data: Any) -> Any:
    """Invert :func:`encode_value`."""
    if not isinstance(data, dict):
        return data
    kind = data.get("__kind__")
    items = data.get("items", [])
    if kind == "cnull":
        return CNULL
    if kind == "tuple":
        return tuple(decode_value(v) for v in items)
    if kind == "list":
        return [decode_value(v) for v in items]
    if kind == "set":
        return {decode_value(v) for v in items}
    if kind == "frozenset":
        return frozenset(decode_value(v) for v in items)
    if kind == "dict":
        return {decode_value(k): decode_value(v) for k, v in items}
    raise CheckpointError(f"unknown encoded value kind {kind!r}")


# ---------------------------------------------------------------------- #
# RNG state
# ---------------------------------------------------------------------- #

def snapshot_rng(rng: np.random.Generator) -> dict:
    """The generator's bit-generator state (plain ints, JSON-safe)."""
    return rng.bit_generator.state


def restore_rng(rng: np.random.Generator, state: dict) -> None:
    """Rewind a generator to a snapshotted state."""
    try:
        rng.bit_generator.state = state
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"cannot restore RNG state: {exc}") from exc


# ---------------------------------------------------------------------- #
# Worker / pool state
# ---------------------------------------------------------------------- #

def _encode_model(model: AnswerModel) -> dict:
    if isinstance(model, OneCoinModel):
        return {"type": "one_coin", "accuracy": model.accuracy}
    if isinstance(model, SpammerModel):
        return {"type": "spammer"}
    if isinstance(model, GladModel):
        return {"type": "glad", "ability": model.ability}
    if isinstance(model, ComparisonNoiseModel):
        return {
            "type": "comparison",
            "sharpness": model.sharpness,
            "fallback_accuracy": model.fallback_accuracy,
            "rating_noise": model.rating_noise,
        }
    # Pool restore only *instantiates* models for workers beyond the
    # reconstructed pool (churn joiners, always one-coin); everything else
    # keeps its live model object, so an opaque marker is enough here.
    return {"type": "opaque", "repr": repr(model)}


def _decode_model(data: dict) -> AnswerModel:
    kind = data.get("type")
    if kind == "one_coin":
        return OneCoinModel(data["accuracy"])
    if kind == "spammer":
        return SpammerModel()
    if kind == "glad":
        return GladModel(data["ability"])
    if kind == "comparison":
        return ComparisonNoiseModel(
            sharpness=data["sharpness"],
            fallback_accuracy=data["fallback_accuracy"],
            rating_noise=data["rating_noise"],
        )
    raise CheckpointError(f"cannot reconstruct worker model {data.get('repr', kind)!r}")


def snapshot_pool(pool: "WorkerPool") -> dict:
    """Serialize pool membership, per-worker scalars, and the pool RNG."""
    return {
        "rng": snapshot_rng(pool.rng),
        "workers": [
            {
                "worker_id": w.worker_id,
                "active": w.active,
                "earned": w.earned,
                "model": _encode_model(w.model),
                "latency": {
                    "mean_seconds": w.latency.mean_seconds,
                    "sigma": w.latency.sigma,
                    "arrival_rate": w.latency.arrival_rate,
                },
            }
            for w in pool.workers
        ],
    }


def restore_pool(pool: "WorkerPool", state: dict) -> None:
    """Rebuild a snapshotted pool on top of a freshly constructed one.

    The first ``len(pool)`` snapshot entries map onto the existing workers
    in order (same config + seed means same models; only the process-global
    id counter differs, so ids are overwritten). Entries beyond that are
    churn joiners and are reconstructed from their serialized models.
    Worker answer histories are rebuilt by :func:`restore_platform` from
    the answer log.
    """
    snaps = state["workers"]
    live = pool._workers
    if len(snaps) < len(live):
        raise CheckpointError(
            f"checkpoint has {len(snaps)} workers but the live pool has {len(live)}"
        )
    for worker, snap in zip(live, snaps):
        worker.worker_id = snap["worker_id"]
        worker.active = snap["active"]
        worker.earned = snap["earned"]
        worker.history = []
    for snap in snaps[len(live):]:
        worker = Worker(
            model=_decode_model(snap["model"]),
            latency=LatencyModel(**snap["latency"]),
            worker_id=snap["worker_id"],
        )
        worker.active = snap["active"]
        worker.earned = snap["earned"]
        live.append(worker)
    pool._by_id = {w.worker_id: w for w in live}
    if len(pool._by_id) != len(live):
        raise CheckpointError("duplicate worker ids after pool restore")
    restore_rng(pool.rng, state["rng"])


# ---------------------------------------------------------------------- #
# Task / answer / platform state
# ---------------------------------------------------------------------- #

def _snapshot_task(task: Task) -> dict:
    return {
        "task_id": task.task_id,
        "task_type": task.task_type.value,
        "question": task.question,
        "options": [encode_value(o) for o in task.options],
        "payload": encode_value(task.payload),
        "truth": encode_value(task.truth),
        "difficulty": task.difficulty,
        "reward": task.reward,
        "is_gold": task.is_gold,
        "state": task.state.value,
    }


def _restore_task(data: dict) -> Task:
    task = Task(
        TaskType(data["task_type"]),
        question=data["question"],
        options=tuple(decode_value(o) for o in data["options"]),
        payload=decode_value(data["payload"]),
        truth=decode_value(data["truth"]),
        difficulty=data["difficulty"],
        reward=data["reward"],
        is_gold=data["is_gold"],
        task_id=data["task_id"],
    )
    task.state = TaskState(data["state"])
    return task


def _snapshot_answer(answer: Answer) -> dict:
    return {
        "task_id": answer.task_id,
        "worker_id": answer.worker_id,
        "value": encode_value(answer.value),
        "submitted_at": answer.submitted_at,
        "duration": answer.duration,
        "reward_paid": answer.reward_paid,
    }


def _restore_answer(data: dict) -> Answer:
    return Answer(
        task_id=data["task_id"],
        worker_id=data["worker_id"],
        value=decode_value(data["value"]),
        submitted_at=data["submitted_at"],
        duration=data["duration"],
        reward_paid=data["reward_paid"],
    )


def snapshot_platform(platform: "SimulatedPlatform") -> dict:
    """Serialize budget, RNG, answer log, published tasks, and stats."""
    stats = platform.stats
    return {
        "budget": platform.budget,
        "rng": snapshot_rng(platform.rng),
        "answers": [_snapshot_answer(a) for a in platform.answers],
        "tasks": [_snapshot_task(t) for t in platform._tasks.values()],
        "stats": {
            "counters": {attr: getattr(stats, attr) for attr in _STAT_METRICS},
            "answers_by_worker": dict(stats.answers_by_worker),
        },
    }


def restore_platform(platform: "SimulatedPlatform", state: dict) -> None:
    """Rebuild platform bookkeeping; the pool must already be restored."""
    platform.budget = state["budget"]
    restore_rng(platform.rng, state["rng"])
    platform._tasks = {}
    for task_data in state["tasks"]:
        task = _restore_task(task_data)
        platform._tasks[task.task_id] = task
    platform.answers = []
    platform._answers_by_task = defaultdict(list)
    for answer_data in state["answers"]:
        answer = _restore_answer(answer_data)
        platform.answers.append(answer)
        platform._answers_by_task[answer.task_id].append(answer)
        try:
            platform.pool.worker(answer.worker_id).history.append(answer)
        except Exception as exc:
            raise CheckpointError(
                f"answer log references unknown worker {answer.worker_id!r}"
            ) from exc
    stats = platform.stats
    for attr, value in state["stats"]["counters"].items():
        if attr in _STAT_METRICS:
            setattr(stats, attr, value)
    stats.answers_by_worker.clear()
    stats.answers_by_worker.update(state["stats"]["answers_by_worker"])


def snapshot_scheduler(scheduler: "BatchScheduler") -> dict:
    """Serialize the scheduler's simulated clock and stream/batch counters.

    When hedging is live, the per-task-type observation windows ride along
    so a resumed run re-fits the exact same completion models (and hence
    makes the exact same hedge decisions). Deadline pressure itself is
    *not* persisted — it is a pure function of the restored clock and is
    re-derived on the first post-resume batch.
    """
    state = {
        "clock": scheduler._clock,
        "streams": scheduler._streams,
        "batches_run": scheduler.batches_run,
        "deadline_stage": scheduler._deadline_stage,
    }
    if scheduler.hedge_state is not None:
        state["hedge"] = scheduler.hedge_state.export_state()
    return state


def restore_scheduler(scheduler: "BatchScheduler", state: dict) -> None:
    """Rewind a scheduler's clock, stream counter, and lifetime batch count."""
    scheduler._clock = state["clock"]
    scheduler._streams = state["streams"]
    scheduler.batches_run = state["batches_run"]
    scheduler._deadline_stage = state.get("deadline_stage", "normal")
    hedge = state.get("hedge")
    if hedge is not None:
        if scheduler.hedge_state is None:
            from repro.platform.batch import HedgeState

            scheduler.hedge_state = HedgeState(
                percentile=scheduler.config.hedge_percentile,
                min_samples=scheduler.config.hedge_min_samples,
            )
        scheduler.hedge_state.restore_state(hedge)


# ---------------------------------------------------------------------- #
# The on-disk checkpoint
# ---------------------------------------------------------------------- #

class Checkpoint:
    """One snapshot: capture from live objects, save/load a directory."""

    FILENAME = "checkpoint.json"

    def __init__(self, state: dict):
        self.state = state

    @classmethod
    def capture(
        cls,
        platform: "SimulatedPlatform",
        inference: "TruthInference | None" = None,
        extra: dict | None = None,
    ) -> "Checkpoint":
        """Snapshot the live run (platform, pool, scheduler, cache, EM
        state). *extra* carries caller progress markers (chunk index,
        statement index) and must be JSON-serializable."""
        state: dict[str, Any] = {
            "version": FORMAT_VERSION,
            "pool": snapshot_pool(platform.pool),
            "platform": snapshot_platform(platform),
            "scheduler": snapshot_scheduler(platform.scheduler),
        }
        if platform.cache is not None:
            state["cache"] = platform.cache.export_entries()
        if inference is not None:
            em_state = inference.export_state()
            if em_state:
                state["inference"] = em_state
        if extra:
            state["extra"] = extra
        return cls(state)

    @property
    def extra(self) -> dict:
        """Caller progress markers stored at capture time."""
        return self.state.get("extra", {})

    def save(self, directory: "Path | str") -> Path:
        """Write the snapshot atomically (write temp, rename) into *directory*."""
        path = Path(directory)
        try:
            path.mkdir(parents=True, exist_ok=True)
            target = path / self.FILENAME
            tmp = path / (self.FILENAME + ".tmp")
            tmp.write_text(json.dumps(self.state, indent=1), encoding="utf-8")
            tmp.replace(target)
        except OSError as exc:
            raise CheckpointError(f"cannot write checkpoint to {path}: {exc}") from exc
        return target

    @classmethod
    def load(cls, directory: "Path | str") -> "Checkpoint":
        """Read a snapshot previously written by :meth:`save`."""
        path = Path(directory) / cls.FILENAME
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
        try:
            state = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"corrupt checkpoint {path}: {exc}") from exc
        version = state.get("version")
        if version != FORMAT_VERSION:
            raise CheckpointError(
                f"checkpoint format {version!r} unsupported (expected {FORMAT_VERSION})"
            )
        return cls(state)

    def restore(
        self,
        platform: "SimulatedPlatform",
        inference: "TruthInference | None" = None,
    ) -> None:
        """Apply the snapshot to freshly constructed live objects.

        The caller must have built *platform* (and its pool/scheduler) with
        the same configuration and seeds as the checkpointed run; restore
        then rewinds RNG streams, bookkeeping, and counters on top.
        """
        restore_pool(platform.pool, self.state["pool"])
        restore_platform(platform, self.state["platform"])
        if platform.cache is not None and "cache" in self.state:
            platform.cache.import_entries(self.state["cache"])
        restore_scheduler(platform.scheduler, self.state["scheduler"])
        if inference is not None and "inference" in self.state:
            inference.warm_start(self.state["inference"])
