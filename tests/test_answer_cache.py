"""Tests for the content-addressed answer cache (repro.platform.cache)."""

import hashlib
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.data.database import Database
from repro.data.schema import CNULL, SchemaBuilder, is_cnull
from repro.errors import CacheError, CheckpointError, ConfigurationError
from repro.faults.plan import DeliveryFaults, FaultPlan
from repro.lang.executor import CrowdOracle
from repro.lang.interpreter import CrowdSQLSession
from repro.obs.metrics import MetricsRegistry
from repro.platform.batch import BatchConfig
from repro.platform.cache import (
    CACHE_FORMAT_VERSION,
    POSITIONAL_PAYLOAD_KEYS,
    AnswerCache,
    question_signer,
    signature_of,
    task_signature,
)
from repro.platform.platform import SimulatedPlatform
from repro.platform.task import Answer, Task, TaskType, single_choice
from repro.recovery.checkpoint import Checkpoint, encode_value
from repro.workers.pool import WorkerPool


def make_platform(seed=7, pool_size=20, batch=None, cache=None):
    pool = WorkerPool.heterogeneous(
        pool_size, accuracy_low=0.7, accuracy_high=0.95, seed=seed
    )
    platform = SimulatedPlatform(pool, seed=seed + 1, batch=batch)
    if cache is not None:
        platform.attach_cache(cache)
    return platform


def make_tasks(n, prefix="item"):
    return [
        single_choice(f"{prefix} {i}?", ("yes", "no"), truth="yes" if i % 2 else "no")
        for i in range(n)
    ]


def stream(platform, tasks, answers):
    """Answer tuples keyed by workload position and within-pool worker index.

    Worker/task ids come from process-global counters, so separately built
    platforms name them differently; positions are the stable identities.
    """
    widx = {w.worker_id: i for i, w in enumerate(platform.pool)}
    return [
        (ti, widx[a.worker_id], a.value, round(a.submitted_at, 9))
        for ti, task in enumerate(tasks)
        for a in answers[task.task_id]
    ]


class TestSignature:
    def test_identical_content_same_signature(self):
        a = single_choice("same thing?", ("yes", "no"))
        b = single_choice("same thing?", ("yes", "no"))
        assert a.task_id != b.task_id
        assert task_signature(a) == task_signature(b)

    def test_whitespace_is_normalized(self):
        assert signature_of(
            TaskType.SINGLE_CHOICE, "a   b\n c", ("x",)
        ) == signature_of(TaskType.SINGLE_CHOICE, "a b c", ("x",))

    def test_question_options_type_difficulty_matter(self):
        base = signature_of(TaskType.SINGLE_CHOICE, "q?", ("a", "b"))
        assert base != signature_of(TaskType.SINGLE_CHOICE, "other?", ("a", "b"))
        assert base != signature_of(TaskType.SINGLE_CHOICE, "q?", ("a", "c"))
        assert base != signature_of(TaskType.MULTI_CHOICE, "q?", ("a", "b"))
        assert base != signature_of(
            TaskType.SINGLE_CHOICE, "q?", ("a", "b"), difficulty=0.5
        )

    def test_positional_payload_keys_are_excluded(self):
        a = signature_of(
            TaskType.COMPARE, "A vs B", (), {"left": "x", "left_index": 0, "right_index": 3}
        )
        b = signature_of(
            TaskType.COMPARE, "A vs B", (), {"left": "x", "left_index": 9, "item_index": 1}
        )
        assert a == b
        assert a != signature_of(TaskType.COMPARE, "A vs B", (), {"left": "y"})

    def test_truth_and_reward_do_not_fragment(self):
        a = single_choice("q?", ("yes", "no"), truth="yes", reward=0.01)
        b = single_choice("q?", ("yes", "no"), truth="no", reward=0.99)
        assert task_signature(a) == task_signature(b)

    def test_collect_and_gold_are_uncacheable(self):
        assert signature_of(TaskType.COLLECT, "name a state") is None
        gold = single_choice("probe?", ("yes", "no"), truth="yes", is_gold=True)
        assert task_signature(gold) is None

    def test_opaque_payload_is_uncacheable(self):
        sig = signature_of(TaskType.FILL, "q?", (), {"blob": object()})
        assert sig is None
        assert question_signer(TaskType.FILL, (), {"blob": object()})("q?") is None
        assert question_signer(TaskType.COLLECT)("name a state") is None

    @pytest.mark.parametrize(
        "task_type, question, options, payload, difficulty, digest",
        [
            (
                TaskType.SINGLE_CHOICE, "Ist das Café geöffnet? — 東京タワー",
                ("ja", "nein"), None, 0.0,
                "fa53f5bf5ffe79e9019a0a5988f7d057ca78f933ca95a49fa46d52953d361fcc",
            ),
            (
                TaskType.SINGLE_CHOICE, 'Is "A\\B" the same as \'C\'?',
                ('"yes"', "no\\"), None, 0.0,
                "fdf5a51e0bde8f0f399e1d2a548b3598a7d1eae3c4d5e136d926cb0edc6b58ef",
            ),
            (
                TaskType.FILL, "bell\x07 and nul\x00 stay", (), {"column": "name\x1b"}, 0.0,
                "238555cc8ca1da7f4535528a987592f02e940509fb07c54b4ae4d9f452b0b83f",
            ),
            (
                TaskType.SINGLE_CHOICE, "  runs   of\n\n\twhitespace here  ",
                ("yes", "no"), None, 0.0,
                "80de548c12a15b6ff4f013b7c46d34d5e255c4c96caa0cd3cc21c77b0829aea5",
            ),
            (
                TaskType.COMPARE, "A vs B", (),
                {"left": "x", "right": ("y", 2), "item_index": 4, "left_index": 1,
                 "right_index": 2},
                0.0,
                "a5aa11a658c2083c14c8679c10e85085fc5dd3108e1e3802a93d722f87916429",
            ),
            (
                TaskType.RATE, "Rate this photo", (1, 2, 3),
                {"tags": frozenset({"b", "a"}), "cell": CNULL}, 0.75,
                "e8e9e993dbf83f265ab05bd58f80acc7e1cbdead0ccac197ad37bc714c64ac44",
            ),
        ],
    )
    def test_pinned_digests(self, task_type, question, options, payload, difficulty, digest):
        # Saved JSONL caches keep serving only while these values hold.
        assert signature_of(task_type, question, options, payload, difficulty) == digest
        signer = question_signer(task_type, options, payload, difficulty)
        assert signer(question) == digest


def _reference_signature(task_type, question, options=(), payload=None, difficulty=0.0):
    """The signature as first defined: one json.dumps of the whole content."""
    if task_type is TaskType.COLLECT:
        return None
    content_payload = {
        key: value
        for key, value in (payload or {}).items()
        if key not in POSITIONAL_PAYLOAD_KEYS
    }
    try:
        content = {
            "v": CACHE_FORMAT_VERSION,
            "type": task_type.value,
            "question": " ".join(question.split()),
            "options": [encode_value(option) for option in options],
            "payload": [
                [key, encode_value(content_payload[key])]
                for key in sorted(content_payload)
            ],
            "difficulty": difficulty,
        }
    except CheckpointError:
        return None
    blob = json.dumps(content, sort_keys=True, ensure_ascii=False, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# Text that often holds the characters JSON must escape or keep as is.
_TEXT = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\x00\\ \t\n{}:,'), st.characters(exclude_categories=("Cs",))
    ),
    max_size=12,
)
_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), _TEXT),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.tuples(children, children),
        st.frozensets(st.one_of(st.integers(), _TEXT), max_size=3),
        st.dictionaries(_TEXT, children, max_size=3),
    ),
    max_leaves=6,
)
_PAYLOADS = st.one_of(
    st.none(),
    st.dictionaries(
        st.one_of(_TEXT, st.sampled_from(sorted(POSITIONAL_PAYLOAD_KEYS))), _VALUES, max_size=4
    ),
)


@settings(max_examples=150, deadline=None)
@given(
    task_type=st.sampled_from(list(TaskType)),
    questions=st.lists(_TEXT, min_size=1, max_size=3),
    options=st.lists(_VALUES, max_size=3),
    payload=_PAYLOADS,
    difficulty=st.one_of(st.floats(), st.integers(-3, 3)),
)
@example(
    task_type=TaskType.SINGLE_CHOICE,
    questions=['say "\x00"', '"', "\x00 \x00"],
    options=['"', "\x00", 'a"b\x00'],
    payload={"note": 'q"\x00', "item_index": 3},
    difficulty=0.5,
)
def test_signer_matches_the_reference_encoding(
    task_type, questions, options, payload, difficulty
):
    sign = question_signer(task_type, options, payload, difficulty)
    for question in questions:
        expected = _reference_signature(task_type, question, options, payload, difficulty)
        assert sign(question) == expected
        assert signature_of(task_type, question, options, payload, difficulty) == expected


class TestCacheStore:
    def answers(self, task, values):
        return [
            Answer(task_id=task.task_id, worker_id=f"w{i}", value=v, reward_paid=0.01)
            for i, v in enumerate(values)
        ]

    def test_lookup_requires_enough_answers(self):
        cache = AnswerCache()
        task = single_choice("q?", ("yes", "no"))
        cache.store(task, self.answers(task, ["yes", "yes"]))
        sig = task_signature(task)
        assert cache.lookup(sig, 3) is None
        assert cache.misses == 1
        served = cache.lookup(sig, 2)
        assert [a.value for a in served] == ["yes", "yes"]
        assert cache.hits == 1
        assert [a.value for a in cache.lookup(sig, 1)] == ["yes"]

    def test_partial_never_clobbers_full(self):
        cache = AnswerCache()
        task = single_choice("q?", ("yes", "no"))
        sig = task_signature(task)
        cache.store(task, self.answers(task, ["yes", "no", "yes"]))
        cache.store(task, self.answers(task, ["no"]))
        assert len(cache.entry(sig).answers) == 3
        cache.store(task, self.answers(task, ["no"] * 4))
        assert len(cache.entry(sig).answers) == 4

    def test_empty_answer_lists_are_not_stored(self):
        cache = AnswerCache()
        cache.store(single_choice("q?", ("yes", "no")), [])
        assert len(cache) == 0

    def test_uncacheable_store_is_a_noop(self):
        cache = AnswerCache()
        task = Task(TaskType.COLLECT, question="name a state")
        cache.store(task, [Answer(task.task_id, "w0", "Ohio")])
        assert len(cache) == 0

    def test_lru_eviction_at_boundary(self):
        cache = AnswerCache(max_entries=2)
        tasks = make_tasks(3, prefix="lru")
        for task in tasks:
            cache.store(task, self.answers(task, ["yes"]))
        assert len(cache) == 2
        assert cache.evictions == 1
        assert task_signature(tasks[0]) not in cache
        # A lookup refreshes LRU order: task[1] survives the next eviction.
        assert cache.lookup(task_signature(tasks[1]), 1) is not None
        extra = single_choice("lru extra?", ("yes", "no"))
        cache.store(extra, self.answers(extra, ["no"]))
        assert task_signature(tasks[1]) in cache
        assert task_signature(tasks[2]) not in cache
        assert cache.evictions == 2

    def test_max_entries_validation(self):
        with pytest.raises(ConfigurationError):
            AnswerCache(max_entries=0)

    def test_resolving_in_slices_equals_one_resolve(self):
        """A run that takes its tasks slice by slice extends one resolution:
        partitions, duplicates across slices and counters equal resolving
        the whole list at once."""

        def resolved(slices):
            cache = AnswerCache()
            for question in ("hit 0?", "hit 1?"):
                task = single_choice(question, ("yes", "no"))
                cache.store(task, self.answers(task, ["yes", "no", "yes"]))
            tasks = [
                single_choice(q, ("yes", "no"), task_id=f"s{i}")
                for i, q in enumerate(
                    ["miss 0?", "hit 0?", "miss 0?", "miss 1?", "hit 1?", "miss 1?"]
                )
            ]
            resolution = None
            for lo, hi in slices:
                resolution = cache.resolve(tasks[lo:hi], 3, into=resolution)
            return (
                [t.task_id for t in resolution.misses],
                [t.task_id for t in resolution.hit_tasks],
                {k: [t.task_id for t in v] for k, v in resolution.duplicates.items()},
                (cache.hits, cache.misses, cache.coalesced, cache.answers_reused),
            )

        whole = resolved([(0, 6)])
        assert whole == (
            ["s0", "s3"], ["s1", "s4"], {"s0": ["s2"], "s3": ["s5"]}, (2, 2, 2, 6)
        )
        assert resolved([(i, i + 1) for i in range(6)]) == whole
        assert resolved([(0, 2), (2, 5), (5, 6)]) == whole


class TestPlatformIntegration:
    def test_a_platform_counts_only_the_lookups_it_served(self):
        def counts(platform):
            stats = platform.stats
            return (
                stats.cache_hits,
                stats.cache_misses,
                stats.cache_coalesced,
                stats.cache_answers_reused,
                stats.cache_evictions,
            )

        cache = AnswerCache()
        first = make_platform(cache=cache)
        first.collect(make_tasks(4, prefix="carry"), redundancy=3)
        first.collect(make_tasks(4, prefix="carry"), redundancy=3)
        assert counts(first) == (4, 4, 0, 12, 0)
        second = make_platform(seed=9, cache=cache)
        assert counts(second) == (0, 0, 0, 0, 0)
        assert second.stats.cache_summary() == ""
        assert counts(first) == (4, 4, 0, 12, 0)
        # The cache now counts into the second platform only.
        second.collect(make_tasks(4, prefix="carry"), redundancy=3)
        assert counts(second) == (4, 0, 0, 12, 0)
        assert (cache.hits, cache.misses) == (4, 0)
        assert counts(first) == (4, 4, 0, 12, 0)

    def test_inflight_duplicates_publish_once(self):
        platform = make_platform(cache=AnswerCache())
        tasks = [single_choice("dup?", ("yes", "no")) for _ in range(3)]
        answers = platform.collect(tasks, redundancy=2)
        assert platform.stats.tasks_published == 1
        assert platform.cache.coalesced == 2
        assert set(answers) == {t.task_id for t in tasks}
        canonical = answers[tasks[0].task_id]
        for dup in tasks[1:]:
            mirrored = answers[dup.task_id]
            assert [a.value for a in mirrored] == [a.value for a in canonical]
            assert all(a.reward_paid == 0.0 for a in mirrored)
            assert not dup.is_open
        # Only the canonical's answers were paid for and logged.
        assert platform.stats.answers_collected == 2
        assert platform.stats.cache_cost_saved == pytest.approx(0.04)

    def test_cross_call_reuse_is_free_and_rng_free(self):
        platform = make_platform(cache=AnswerCache())
        first = platform.collect([single_choice("reuse?", ("yes", "no"))], redundancy=3)
        spent = platform.stats.cost_spent
        rng_state = platform.rng.bit_generator.state
        pool_state = platform.pool.rng.bit_generator.state
        again = single_choice("reuse?", ("yes", "no"))
        served = platform.collect([again], redundancy=3)[again.task_id]
        assert [a.value for a in served] == [
            a.value for a in next(iter(first.values()))
        ]
        assert all(a.reward_paid == 0.0 and a.duration == 0.0 for a in served)
        assert platform.stats.cost_spent == spent
        assert platform.stats.tasks_published == 1
        assert platform.rng.bit_generator.state == rng_state
        assert platform.pool.rng.bit_generator.state == pool_state
        # Served answers are not crowd work: no answer-log or history entries.
        assert platform.answers_for(again.task_id) == []
        assert platform.stats.answers_collected == 3
        assert platform.cache.hits == 1
        assert platform.cache.answers_reused == 3

    def test_higher_redundancy_is_a_miss_not_a_truncated_hit(self):
        platform = make_platform(cache=AnswerCache())
        platform.collect([single_choice("grow?", ("yes", "no"))], redundancy=2)
        again = single_choice("grow?", ("yes", "no"))
        served = platform.collect([again], redundancy=4)[again.task_id]
        assert len(served) == 4
        assert platform.stats.tasks_published == 2

    def test_cold_cache_is_bit_identical_on_duplicate_free_workload(self):
        config = BatchConfig(batch_size=8, max_parallel=4, seed=99)
        plain = make_platform(batch=config)
        plain_tasks = make_tasks(30)
        plain_result = plain.scheduler.run(plain_tasks, redundancy=3)

        cached = make_platform(batch=config, cache=AnswerCache())
        cached_tasks = make_tasks(30)
        cached_result = cached.scheduler.run(cached_tasks, redundancy=3)

        assert stream(plain, plain_tasks, plain_result.answers) == stream(
            cached, cached_tasks, cached_result.answers
        )
        assert plain.stats.cost_spent == cached.stats.cost_spent
        assert plain.stats.tasks_published == cached.stats.tasks_published
        assert cached.cache.hits == 0

    def test_scheduler_hits_have_zero_completion_time(self):
        platform = make_platform(batch=BatchConfig(batch_size=4), cache=AnswerCache())
        platform.scheduler.run([single_choice("warm?", ("yes", "no"))], redundancy=2)
        again = single_choice("warm?", ("yes", "no"))
        result = platform.scheduler.run([again], redundancy=2)
        assert result.completion_times[again.task_id] == 0.0
        assert result.makespan == 0.0

    def test_incomplete_rounds_bypass_the_cache(self):
        platform = make_platform(batch=BatchConfig(batch_size=4), cache=AnswerCache())
        task = single_choice("wave?", ("yes", "no"))
        first = platform.scheduler.run([task], redundancy=2, complete=False)
        second = platform.scheduler.run([task], redundancy=2, complete=False)
        assert task.is_open
        assert platform.cache.hits == 0
        assert platform.cache.misses == 0
        assert len(platform.cache) == 0
        # Both waves bought real, paid-for evidence.
        assert len(platform.answers_for(task.task_id)) == 4
        assert all(
            a.reward_paid > 0
            for a in first.answers[task.task_id] + second.answers[task.task_id]
        )

    def test_duplicated_deliveries_store_one_answer_per_worker(self):
        platform = make_platform(cache=AnswerCache())
        platform.attach_faults(FaultPlan(seed=3, delivery=DeliveryFaults(duplicate_rate=1.0)))
        tasks = make_tasks(6)
        cold = platform.collect(tasks, redundancy=3)
        for task in tasks:
            # Every delivery arrived twice; the entry keeps each worker once.
            assert len(cold[task.task_id]) == 6
            entry = platform.cache.entry(task_signature(task))
            workers = [a.worker_id for a in entry.answers]
            assert len(workers) == len(set(workers)) == 3
        warm_tasks = make_tasks(6)
        warm = platform.collect(warm_tasks, redundancy=3)
        assert platform.cache.hits == 6
        for task in warm_tasks:
            assert len({a.worker_id for a in warm[task.task_id]}) == 3

    def test_degraded_duplicates_mirror_the_canonical_failure(self):
        config = BatchConfig(
            batch_size=4,
            retry_limit=0,
            abandon_rate=1.0,
            seed=5,
            failure_policy="degrade",
        )
        platform = make_platform(batch=config, cache=AnswerCache())
        tasks = [single_choice("doomed?", ("yes", "no")) for _ in range(2)]
        result = platform.scheduler.run(tasks, redundancy=2)
        assert set(result.failures) == {t.task_id for t in tasks}
        assert result.failures[tasks[1].task_id].reason == (
            result.failures[tasks[0].task_id].reason
        )
        # Nothing was answered, so nothing poisoned the cache.
        assert len(platform.cache) == 0


class TestCounterTotals:
    """Cache, cancel and stats totals, booked once per run, equal the totals
    of booking each task as it happened (values recorded task by task)."""

    def test_resolve_and_cancel_totals(self):
        pool = WorkerPool.heterogeneous(12, accuracy_low=0.75, accuracy_high=0.97, seed=5)
        platform = SimulatedPlatform(
            pool,
            seed=6,
            batch=BatchConfig(batch_size=16, max_parallel=8, seed=7),
            metrics=MetricsRegistry(),
        )
        cache = platform.attach_cache(AnswerCache())
        # Two entries that serve redundancy 3, one with too few answers.
        for question, n in (("full 0?", 3), ("full 1?", 4), ("short?", 2)):
            task = single_choice(question, ("yes", "no"))
            cache.store(
                task, [Answer(task.task_id, f"w{i}", "yes", reward_paid=0.01) for i in range(n)]
            )
        asked = [
            "full 0?", "short?", "new 0?", "full 1?", "new 0?",
            "short?", "full 0?", "new 1?", "new 0?",
        ]
        platform.collect(
            [single_choice(q, ("yes", "no"), truth="yes") for q in asked], redundancy=3
        )
        assert (cache.hits, cache.misses, cache.coalesced, cache.answers_reused) == (3, 3, 3, 18)

        database = Database()
        database.create_table(
            "items",
            SchemaBuilder().integer("id").string("name").integer("price").build(),
            rows=[{"id": i, "name": f"item {i}", "price": (i * 37) % 100} for i in range(60)],
        )
        session = CrowdSQLSession(
            database=database,
            platform=platform,
            oracle=CrowdOracle(filter_fn=lambda value, _q: int(str(value).split()[-1]) % 3 == 0),
            redundancy=3,
            pipeline=True,
        )
        result = session.query(
            "SELECT name, price FROM items WHERE CROWDFILTER(name, 'is it in stock?') "
            "ORDER BY price DESC LIMIT 5"
        )
        assert result.stats.tasks_cancelled == 44
        counters = {
            key: counter.value
            for key, counter in platform.metrics.counters.items()
            if key.startswith(("cache.", "batch.tasks_cancelled"))
        }
        # The stream looks up only the 16 candidates it plans before the
        # LIMIT; the 44 it never reaches are cancelled, not looked up.
        assert counters == {
            "cache.hits": 3,
            "cache.misses": 19,
            "cache.coalesced": 3,
            "cache.answers_reused": 18,
            "cache.cost_saved": 0.18,
            "batch.tasks_cancelled": 44,
        }
        assert platform.stats.tasks_cancelled == 44
        # Refunds add task by task in pass order, so the float is exact.
        assert platform.stats.cancel_cost_refunded == 1.320000000000001


class TestPersistence:
    def seeded_cache(self):
        cache = AnswerCache()
        unicode_task = single_choice("¿Dónde está — 東京?", ("sí", "no"))
        cache.store(
            unicode_task,
            [Answer(unicode_task.task_id, "w0", "sí"), Answer(unicode_task.task_id, "w1", "sí")],
        )
        fill = Task(TaskType.FILL, question="hometown of Ada?", payload={"col": "hometown"})
        cache.store(
            fill,
            [
                Answer(fill.task_id, "w0", None),
                Answer(fill.task_id, "w1", CNULL),
                Answer(fill.task_id, "w2", "London"),
            ],
        )
        return cache

    def test_jsonl_round_trip(self, tmp_path):
        cache = self.seeded_cache()
        path = tmp_path / "answers.jsonl"
        cache.save(path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2
        assert all(json.loads(line) for line in lines)

        loaded = AnswerCache()
        assert loaded.load(path) == 2
        for sig, entry in cache._entries.items():
            other = loaded.entry(sig)
            assert other is not None
            assert other.question == entry.question
            assert [(a.worker_id, a.value) for a in other.answers] == [
                (a.worker_id, a.value) for a in entry.answers
            ]
        restored = loaded.entry(list(cache._entries)[1]).answers
        assert restored[0].value is None
        assert is_cnull(restored[1].value)

    def test_empty_cache_saves_an_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        AnswerCache().save(path)
        assert path.read_text(encoding="utf-8") == ""
        fresh = AnswerCache()
        assert fresh.load(path) == 0
        assert len(fresh) == 0

    def test_save_is_atomic(self, tmp_path):
        path = tmp_path / "atomic.jsonl"
        self.seeded_cache().save(path)
        assert not (tmp_path / "atomic.jsonl.tmp").exists()

    def test_load_errors(self, tmp_path):
        with pytest.raises(CacheError):
            AnswerCache().load(tmp_path / "missing.jsonl")
        corrupt = tmp_path / "corrupt.jsonl"
        corrupt.write_text('{"signature": "x"\n', encoding="utf-8")
        with pytest.raises(CacheError):
            AnswerCache().load(corrupt)
        malformed = tmp_path / "malformed.jsonl"
        malformed.write_text('{"signature": "x"}\n', encoding="utf-8")
        with pytest.raises(CacheError):
            AnswerCache().load(malformed)

    def test_import_respects_max_entries(self, tmp_path):
        cache = AnswerCache()
        tasks = make_tasks(5, prefix="cap")
        for task in tasks:
            cache.store(task, [Answer(task.task_id, "w0", "yes")])
        path = tmp_path / "cap.jsonl"
        cache.save(path)

        bounded = AnswerCache(max_entries=2)
        assert bounded.load(path) == 2
        # Newest entries survive; loading never counts as eviction.
        assert task_signature(tasks[4]) in bounded
        assert task_signature(tasks[3]) in bounded
        assert task_signature(tasks[0]) not in bounded
        assert bounded.evictions == 0

    def test_persisted_answers_replay_in_a_fresh_platform(self, tmp_path):
        path = tmp_path / "spill.jsonl"
        first = make_platform(cache=AnswerCache())
        first.collect(make_tasks(4, prefix="spill"), redundancy=3)
        first.cache.save(path)

        second = make_platform(cache=AnswerCache())
        second.cache.load(path)
        answers = second.collect(make_tasks(4, prefix="spill"), redundancy=3)
        assert second.stats.tasks_published == 0
        assert second.stats.cost_spent == 0.0
        assert second.cache.hits == 4
        assert all(
            a.reward_paid == 0.0 for served in answers.values() for a in served
        )


class TestCheckpointIntegration:
    def test_checkpoint_carries_the_cache(self):
        platform = make_platform(batch=BatchConfig(batch_size=4), cache=AnswerCache())
        platform.scheduler.run(make_tasks(3, prefix="ckpt"), redundancy=2)
        snapshot = Checkpoint.capture(platform)
        assert len(snapshot.state["cache"]) == 3

        restored = make_platform(batch=BatchConfig(batch_size=4), cache=AnswerCache())
        snapshot.restore(restored)
        assert len(restored.cache) == 3
        # The resumed run re-publishes nothing it already answered.
        restored.scheduler.run(make_tasks(3, prefix="ckpt"), redundancy=2)
        assert restored.cache.hits == 3

    def test_checkpoint_round_trips_through_disk(self, tmp_path):
        platform = make_platform(cache=AnswerCache())
        platform.collect(make_tasks(2, prefix="disk"), redundancy=2)
        Checkpoint.capture(platform).save(tmp_path)

        loaded = Checkpoint.load(tmp_path)
        restored = make_platform(cache=AnswerCache())
        loaded.restore(restored)
        published_at_checkpoint = restored.stats.tasks_published
        restored.collect(make_tasks(2, prefix="disk"), redundancy=2)
        assert restored.stats.tasks_published == published_at_checkpoint

    def test_checkpoint_without_cache_still_restores(self, tmp_path):
        platform = make_platform()
        platform.collect(make_tasks(2, prefix="nocache"), redundancy=2)
        snapshot = Checkpoint.capture(platform)
        assert "cache" not in snapshot.state
        restored = make_platform(cache=AnswerCache())
        snapshot.restore(restored)
        assert len(restored.cache) == 0
