"""Content-addressed answer cache: never ask the crowd the same question twice.

Qurk reuses comparisons across its human-powered sorts and joins, and
Reprowd makes whole pipelines cheap to re-run by caching every collected
answer. :class:`AnswerCache` brings that regime to the simulated platform:

* **Content addressing.** A task is identified by a *signature* — a hash of
  its type, whitespace-normalized question, options, difficulty, and
  content payload (positional bookkeeping keys like ``item_index`` are
  excluded, so "the same question about the same records" matches no matter
  where it sits in a batch). Two task kinds are deliberately uncacheable:
  ``COLLECT`` tasks, whose open-world semantics *require* re-asking the same
  question, and gold tasks, which probe individual workers.

* **In-flight coalescing.** :meth:`resolve` partitions one request into
  cache hits, canonical misses, and same-signature duplicates of a miss.
  The batch runtime executes only the canonical misses; duplicates get the
  canonical's answers fanned back out without a second publish.

* **Cross-call reuse.** Answers stored from one scheduler run (one
  ``collect`` call: one operator, one CrowdSQL statement, one trial) are
  replayed for any later call that asks an identical question — at $0
  cost and zero latency, with ``reward_paid=0.0`` on the replayed answers.

* **Persistence.** :meth:`save`/:meth:`load` spill the cache to JSONL (one
  entry per line) through the checkpoint value codec, so repeated
  experiment trials and checkpoint/resume replay answers Reprowd-style
  instead of re-spending budget.

Determinism contract: serving from the cache consumes **no** RNG, and a
miss consumes RNG exactly as the uncached path would — so on a workload
with no duplicate signatures, a cold cache-on run is bit-identical to a
cache-off run at the same seed, while duplicate-heavy workloads get the
savings and remain per-seed deterministic.

Cache-served answers are returned to the caller but are *not* entered in
the platform answer log or ``answers_collected`` — they represent no new
crowd work. Only ``complete=True`` scheduler runs participate; callers
buying incremental evidence for still-open tasks (adaptive filter waves,
Deco's dependent fetches) bypass the cache entirely, as do HIT-grouped
``collect_batched`` (positional fatigue) and online ``ask`` assignment. An entry keeps each worker's first answer, so
a duplicated delivery never replays as a second worker's vote.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, NamedTuple

from repro.errors import CacheError, CheckpointError, ConfigurationError
from repro.obs.metrics import MetricsRegistry
from repro.platform.task import Answer, Task, TaskType

CACHE_FORMAT_VERSION = 1

#: Payload keys that are requester bookkeeping (where a task sits in a
#: batch), not question content — excluded from the signature so identical
#: questions match across positions, operators, and statements.
POSITIONAL_PAYLOAD_KEYS = frozenset({"item_index", "left_index", "right_index"})

#: Encodes a signature's JSON: sorted keys, compact, non-ASCII kept.
_SIGNATURE_JSON = json.JSONEncoder(
    sort_keys=True, ensure_ascii=False, separators=(",", ":")
)

#: Per task type, the JSON after the question: the keys that sort after
#: "question", as an object's closing part (``{"type":...,"v":1}`` minus "{").
_SIGNATURE_TAILS = {
    task_type: ","
    + _SIGNATURE_JSON.encode({"type": task_type.value, "v": CACHE_FORMAT_VERSION})[1:]
    for task_type in TaskType
}


def _unsigned(question: str, *pieces: str) -> None:
    """The signer of an uncacheable question: no signature."""
    return None


def signature_piece(value: Any) -> "str | None":
    """*value* as a signed payload holds it (its JSON), or None when the
    checkpoint codec cannot encode it (the question is then uncacheable).

    A signer built with ``payload_keys`` (:func:`question_signer`) takes
    its per-question payload values as these pieces, so a caller that
    pairs the same values many times encodes each one once.
    """
    from repro.recovery.checkpoint import encode_value

    try:
        return _SIGNATURE_JSON.encode(encode_value(value))
    except CheckpointError:
        return None


def question_signer(
    task_type: TaskType,
    options: Sequence[Any] = (),
    payload: "dict[str, Any] | None" = None,
    difficulty: float = 0.0,
    payload_keys: Sequence[str] = (),
) -> Callable[..., "str | None"]:
    """``sign(question)`` for questions that share every other part.

    A signature is the sha256 of the sorted-key JSON of ``difficulty``,
    ``options``, ``payload``, ``question``, ``type`` and ``v``. The JSON
    before and after the question is encoded here, once; ``sign`` only
    normalizes the question's whitespace, encodes it as a JSON string and
    hashes the three pieces. The pieces are built from the keys on either
    side of ``question``, never by splitting on a marker string an option
    or payload value could contain. An uncacheable question kind
    (``COLLECT``, an opaque payload value) gets a signer that returns None.

    A payload that changes with each question is named by *payload_keys*
    instead of given as *payload*: ``sign(question, *pieces)`` then takes
    each key's value, in *payload_keys* order, as its
    :func:`signature_piece`, and lays the payload's JSON out from them
    (positional keys' pieces are left out, as from a payload).
    """
    if payload and payload_keys:
        raise ConfigurationError("give a signer payload or payload_keys, not both")
    if task_type is TaskType.COLLECT:
        return _unsigned
    # Lazy import: recovery.checkpoint imports platform.platform at module
    # level, and this module must stay importable from the platform package.
    from repro.recovery.checkpoint import encode_value

    content_payload = {
        key: value
        for key, value in (payload or {}).items()
        if key not in POSITIONAL_PAYLOAD_KEYS
    }
    try:
        encoded_options = [encode_value(option) for option in options]
        encoded_payload = [
            [key, encode_value(content_payload[key])] for key in sorted(content_payload)
        ]
    except CheckpointError:
        return _unsigned
    encode = _SIGNATURE_JSON.encode
    tail = _SIGNATURE_TAILS[task_type]
    sha256 = hashlib.sha256
    if payload_keys:
        # The payload is a list of [key, value] pairs in key order.
        head = encode({"difficulty": difficulty, "options": encoded_options})[:-1]
        head += ',"payload":['
        opened = [
            (i, "[" + encode(payload_keys[i]) + ",")
            for i in sorted(range(len(payload_keys)), key=payload_keys.__getitem__)
            if payload_keys[i] not in POSITIONAL_PAYLOAD_KEYS
        ]

        def sign_with(question: str, *pieces: str) -> str:
            pairs = ",".join([key + pieces[i] + "]" for i, key in opened])
            blob = head + pairs + '],"question":' + encode(" ".join(question.split())) + tail
            return sha256(blob.encode("utf-8")).hexdigest()

        return sign_with
    before = {"difficulty": difficulty, "options": encoded_options, "payload": encoded_payload}
    head = encode(before)[:-1] + ',"question":'  # the object left open

    def sign(question: str) -> str:
        blob = head + encode(" ".join(question.split())) + tail
        return sha256(blob.encode("utf-8")).hexdigest()

    return sign


def signature_of(
    task_type: TaskType,
    question: str,
    options: Sequence[Any] = (),
    payload: "dict[str, Any] | None" = None,
    difficulty: float = 0.0,
) -> "str | None":
    """The canonical content signature for a would-be task, or None.

    Computable without constructing a :class:`Task`. ``COLLECT`` questions
    return None: open-world enumeration depends on re-asking. Values go
    through the checkpoint codec, so anything checkpointable is hashable
    here; a genuinely opaque payload value also returns None (the task
    simply does not participate in caching). Signs one question through
    :func:`question_signer`; a caller with many questions that share the
    other parts builds the signer once instead.
    """
    return question_signer(task_type, options, payload, difficulty)(question)


def task_signature(task: Task) -> "str | None":
    """Signature of a live task; None for uncacheable tasks.

    Gold tasks are uncacheable by design: they exist to probe individual
    workers, so replaying a stored answer would defeat quality control.
    ``truth`` and ``reward`` are deliberately *not* part of the signature —
    neither is shown to workers, and pricing must not fragment the cache.
    A signature the task's builder already computed (``task.signature``)
    is returned as is; nothing mutates a task's content after
    construction, so it cannot go stale.
    """
    if task.is_gold:
        return None
    if task.signature is not None:
        return task.signature
    return signature_of(
        task.task_type, task.question, task.options, task.payload, task.difficulty
    )


class CachedAnswer(NamedTuple):
    """One stored worker response, stripped of its original task binding.

    A named tuple, like :class:`~repro.platform.task.Answer`.
    """

    worker_id: str
    value: Any

    def replay(self, task_id: str) -> Answer:
        """Materialize as an answer for *task_id*: $0 paid, zero latency."""
        # Answer's defaults are the zero time, duration and reward.
        return Answer(task_id, self.worker_id, self.value)


@dataclass
class CacheEntry:
    """Everything stored under one signature."""

    signature: str
    task_type: str
    question: str
    answers: list[CachedAnswer]


@dataclass
class CacheResolution:
    """One request partitioned into hits, canonical misses, and duplicates."""

    redundancy: int
    misses: list[Task] = field(default_factory=list)
    hits: dict[str, list[Answer]] = field(default_factory=dict)
    hit_tasks: list[Task] = field(default_factory=list)
    # canonical task_id -> later tasks in the same request with its signature
    duplicates: dict[str, list[Task]] = field(default_factory=dict)
    # canonical task_id -> signature (only for cacheable misses)
    signatures: dict[str, str] = field(default_factory=dict)
    # canonical task_id -> the task itself (store() needs its metadata)
    canonical: dict[str, Task] = field(default_factory=dict)
    # signature -> canonical task_id, carried across the slices of one run
    canonical_by_signature: dict[str, str] = field(default_factory=dict)

    @property
    def reused(self) -> bool:
        """True when this request was served at least one stored answer."""
        return bool(self.hits) or bool(self.duplicates)

    @property
    def coalesced_count(self) -> int:
        return sum(len(dups) for dups in self.duplicates.values())


class AnswerCache:
    """LRU content-addressed store of crowd answers, keyed by task signature.

    Args:
        max_entries: LRU capacity (least-recently-used signature evicted
            past it); None (default) means unbounded.
        metrics: Registry the hit/miss/coalesce/eviction counters live in
            until the cache is attached to a platform, which points it at
            the platform's registry (``SimulatedPlatform.attach_cache``).
    """

    def __init__(
        self,
        max_entries: "int | None" = None,
        metrics: "MetricsRegistry | None" = None,
    ):
        if max_entries is not None and max_entries < 1:
            raise ConfigurationError(
                f"cache max_entries must be >= 1 or None, got {max_entries}"
            )
        self.max_entries = max_entries
        self.metrics = metrics if metrics is not None else MetricsRegistry(enabled=False)
        self._entries: "OrderedDict[str, CacheEntry]" = OrderedDict()

    # -------------------------------------------------------------- #
    # Counters (always-live handles, like PlatformStats)
    # -------------------------------------------------------------- #

    def _count(self, name: str, amount: int = 1) -> None:
        self.metrics.counter(name).inc(amount)

    @property
    def hits(self) -> int:
        return self.metrics.counter("cache.hits").value

    @property
    def misses(self) -> int:
        return self.metrics.counter("cache.misses").value

    @property
    def coalesced(self) -> int:
        return self.metrics.counter("cache.coalesced").value

    @property
    def evictions(self) -> int:
        return self.metrics.counter("cache.evictions").value

    @property
    def answers_reused(self) -> int:
        return self.metrics.counter("cache.answers_reused").value

    # -------------------------------------------------------------- #
    # Store / lookup
    # -------------------------------------------------------------- #

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, signature: object) -> bool:
        return signature in self._entries

    def entry(self, signature: str) -> "CacheEntry | None":
        """Peek at one entry without touching counters or LRU order."""
        return self._entries.get(signature)

    def store(self, task: Task, answers: Sequence[Answer]) -> None:
        """File *answers* under the task's signature (no-op if uncacheable).

        An existing entry is only replaced when the new answers come from
        more distinct workers (a degraded partial collection never clobbers
        a full one).
        """
        signature = task_signature(task)
        if signature is None or not answers:
            return
        self.store_signature(signature, task, answers)

    def store_signature(
        self, signature: str, task: Task, answers: Sequence[Answer]
    ) -> None:
        """Like :meth:`store` with the signature already computed.

        Keeps each worker's first answer: a duplicated delivery is one
        worker's vote twice, and a replay must not let it stand in for a
        distinct worker's vote.
        """
        if not answers:
            return
        by_worker: dict[str, CachedAnswer] = {}
        for a in answers:
            if a.worker_id not in by_worker:
                by_worker[a.worker_id] = CachedAnswer(a.worker_id, a.value)
        stored = list(by_worker.values())
        existing = self._entries.get(signature)
        if existing is not None:
            if len(stored) > len(existing.answers):
                existing.answers = stored
            self._entries.move_to_end(signature)
            return
        self._entries[signature] = CacheEntry(
            signature=signature,
            task_type=task.task_type.value,
            question=task.question,
            answers=stored,
        )
        while self.max_entries is not None and len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self._count("cache.evictions")

    def _serve(self, signature: str, redundancy: int) -> "list[CachedAnswer] | None":
        """The first *redundancy* stored answers, or None; counts nothing.

        An entry with fewer answers than requested does not serve: the
        caller needs more evidence than the cache holds. A serving entry
        is refreshed in LRU order.
        """
        entry = self._entries.get(signature)
        if entry is None or len(entry.answers) < redundancy:
            return None
        self._entries.move_to_end(signature)
        return entry.answers[:redundancy]

    def lookup(self, signature: str, redundancy: int) -> "list[CachedAnswer] | None":
        """Stored answers able to satisfy *redundancy*, counting hit/miss.

        Serves as :meth:`resolve` does: an entry with fewer answers than
        requested counts as a miss.
        """
        cached = self._serve(signature, redundancy)
        self._count("cache.misses" if cached is None else "cache.hits")
        return cached

    # -------------------------------------------------------------- #
    # Request resolution (the platform/scheduler seam)
    # -------------------------------------------------------------- #

    def resolve(
        self,
        tasks: Sequence[Task],
        redundancy: int,
        into: "CacheResolution | None" = None,
    ) -> CacheResolution:
        """Partition *tasks* into hits, canonical misses, and duplicates.

        Uncacheable tasks pass straight through as misses without touching
        any counter. Task order within each partition is request order, so
        downstream RNG consumption for the misses is deterministic. The
        outcomes are tallied here and each counter is booked once per call.
        *into*, the resolution of the same run's earlier tasks, is extended
        in place and returned: its partitions grow in request order, and a
        task whose signature an earlier slice's miss holds coalesces onto it.
        """
        resolution = into if into is not None else CacheResolution(redundancy=redundancy)
        canonical_by_signature = resolution.canonical_by_signature
        hits = misses = coalesced = reused = 0
        for task in tasks:
            signature = task_signature(task)
            if signature is None:
                resolution.misses.append(task)
                continue
            canonical_id = canonical_by_signature.get(signature)
            if canonical_id is not None:
                resolution.duplicates.setdefault(canonical_id, []).append(task)
                coalesced += 1
                continue
            cached = self._serve(signature, redundancy)
            if cached is not None:
                resolution.hits[task.task_id] = [
                    stored.replay(task.task_id) for stored in cached
                ]
                resolution.hit_tasks.append(task)
                hits += 1
                reused += len(cached)
            else:
                resolution.misses.append(task)
                resolution.signatures[task.task_id] = signature
                resolution.canonical[task.task_id] = task
                canonical_by_signature[signature] = task.task_id
                misses += 1
        # A counter with no event this call is not touched, so a series
        # exists exactly when some call had that outcome.
        if hits:
            self._count("cache.hits", hits)
            self._count("cache.answers_reused", reused)
        if misses:
            self._count("cache.misses", misses)
        if coalesced:
            self._count("cache.coalesced", coalesced)
        return resolution

    def store_fresh(
        self, resolution: CacheResolution, answers: "dict[str, list[Answer]]"
    ) -> None:
        """Store the answers the canonical misses of *resolution* got.

        :meth:`apply` calls this, and the batch runtime calls it alone when
        a run raises, so answers already paid for stay reusable. A partial
        list is stored but does not serve (see :meth:`lookup`).
        """
        for task_id, signature in resolution.signatures.items():
            fresh = answers.get(task_id)
            if fresh:
                self.store_signature(signature, resolution.canonical[task_id], fresh)

    def apply(
        self,
        resolution: CacheResolution,
        answers: "dict[str, list[Answer]]",
        complete: bool = True,
    ) -> int:
        """Finish a resolved request after its misses ran.

        Stores the canonical misses' fresh answers, fans them out to the
        coalesced duplicates (mirroring the canonical's timing but paying
        nothing), merges the hits into *answers*, and completes served
        tasks when *complete*. Returns how many answers were fanned out to
        duplicates (the hit replays were already counted by resolve).
        """
        self.store_fresh(resolution, answers)
        fanned_out = 0
        for canonical_id, dups in resolution.duplicates.items():
            source = answers.get(canonical_id, [])
            for dup in dups:
                dup_id = dup.task_id
                answers[dup_id] = [
                    Answer(dup_id, a.worker_id, a.value, a.submitted_at, a.duration, 0.0)
                    for a in source
                ]
                fanned_out += len(source)
                if complete and dup.is_open:
                    dup.complete()
        if fanned_out:
            self._count("cache.answers_reused", fanned_out)
        for task_id, served in resolution.hits.items():
            answers[task_id] = served
        if complete:
            for task in resolution.hit_tasks:
                if task.is_open:
                    task.complete()
        return fanned_out

    # -------------------------------------------------------------- #
    # Persistence (JSONL spill / load, Reprowd-style)
    # -------------------------------------------------------------- #

    def export_entries(self) -> list[dict]:
        """All entries as JSON-safe dicts, LRU order (oldest first)."""
        from repro.recovery.checkpoint import encode_value

        return [
            {
                "signature": entry.signature,
                "task_type": entry.task_type,
                "question": entry.question,
                "answers": [
                    {"worker_id": a.worker_id, "value": encode_value(a.value)}
                    for a in entry.answers
                ],
            }
            for entry in self._entries.values()
        ]

    def import_entries(self, entries: Sequence[dict]) -> int:
        """Replace the cache contents with *entries*; returns the count kept.

        Entries beyond ``max_entries`` are dropped oldest-first (without
        counting evictions — nothing was ever cached in this process). A
        malformed entry — a missing key, a wrong type, or an answer value
        the checkpoint codec cannot decode — raises :class:`CacheError` and
        leaves the cache as it was.
        """
        from repro.recovery.checkpoint import decode_value

        loaded: "OrderedDict[str, CacheEntry]" = OrderedDict()
        kept = entries if self.max_entries is None else entries[-self.max_entries :]
        for data in kept:
            try:
                entry = CacheEntry(
                    signature=data["signature"],
                    task_type=data["task_type"],
                    question=data["question"],
                    answers=[
                        CachedAnswer(a["worker_id"], decode_value(a["value"]))
                        for a in data["answers"]
                    ],
                )
            except (KeyError, TypeError, CheckpointError) as exc:
                raise CacheError(f"malformed cache entry: {exc}") from exc
            loaded[entry.signature] = entry
        self._entries = loaded
        return len(loaded)

    def save(self, path: "Path | str") -> Path:
        """Spill to JSONL atomically (one entry per line; empty cache = empty file)."""
        target = Path(path)
        lines = [
            json.dumps(data, ensure_ascii=False, separators=(",", ":"))
            for data in self.export_entries()
        ]
        text = "\n".join(lines) + ("\n" if lines else "")
        tmp = target.with_name(target.name + ".tmp")
        try:
            if target.parent and not target.parent.exists():
                target.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_text(text, encoding="utf-8")
            tmp.replace(target)
        except OSError as exc:
            raise CacheError(f"cannot write answer cache to {target}: {exc}") from exc
        return target

    def load(self, path: "Path | str") -> int:
        """Load a JSONL spill written by :meth:`save`; returns entries kept."""
        source = Path(path)
        try:
            text = source.read_text(encoding="utf-8")
        except OSError as exc:
            raise CacheError(f"cannot read answer cache {source}: {exc}") from exc
        entries = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            try:
                entries.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise CacheError(
                    f"corrupt answer cache {source} at line {lineno}: {exc}"
                ) from exc
        return self.import_entries(entries)
