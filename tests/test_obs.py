"""Tests for the observability layer (repro.obs)."""

import json
import threading
from dataclasses import replace

import numpy as np
import pytest

from repro.core import CrowdEngine, EngineConfig
from repro.errors import ConfigurationError
from repro.obs import (
    NULL_SPAN,
    NULL_TRACER,
    Histogram,
    JsonlSink,
    MemorySink,
    MetricsRegistry,
    Tracer,
    build_tree,
    load_spans,
    render_report,
    report_from_file,
)
from repro.platform.batch import BatchConfig
from repro.platform.events import EventSimulator
from repro.platform.platform import PlatformStats, SimulatedPlatform
from repro.platform.task import single_choice
from repro.workers.pool import WorkerPool


def make_tasks(n):
    return [
        single_choice(f"item {i}?", ("yes", "no"), truth="yes" if i % 2 else "no")
        for i in range(n)
    ]


def traced_platform(
    seed=7, pool_size=15, max_parallel=4, metrics_enabled=True, **batch_kwargs
):
    pool = WorkerPool.heterogeneous(
        pool_size, accuracy_low=0.7, accuracy_high=0.95, seed=seed
    )
    tracer = Tracer(MemorySink())
    metrics = MetricsRegistry(enabled=metrics_enabled)
    platform = SimulatedPlatform(
        pool,
        seed=seed + 1,
        batch=BatchConfig(
            batch_size=8, max_parallel=max_parallel, seed=seed + 2, **batch_kwargs
        ),
        tracer=tracer,
        metrics=metrics,
    )
    return platform, tracer, metrics


class TestTracer:
    def test_nesting_assigns_parent_ids(self):
        tracer = Tracer(MemorySink())
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
            assert tracer.current is outer
        assert tracer.current is None
        emitted = tracer.sink.spans
        assert [s["name"] for s in emitted] == ["inner", "outer"]

    def test_annotation_attaches_to_current_span(self):
        tracer = Tracer(MemorySink())
        with tracer.span("work") as span:
            tracer.annotate("tick", sim_time=2.5, detail="x")
        records = tracer.sink.spans
        note = records[0]
        assert note["kind"] == "annotation"
        assert note["parent_id"] == span.span_id
        assert note["duration"] == 0.0
        assert note["sim_start"] == 2.5
        assert note["tags"] == {"detail": "x"}

    def test_end_span_is_idempotent(self):
        tracer = Tracer(MemorySink())
        outer = tracer.span("outer")
        inner = tracer.span("inner")
        tracer.end_span(inner)
        tracer.end_span(inner)  # second close: no effect
        assert tracer.current is outer
        tracer.end_span(outer)
        assert len(tracer.sink.spans) == 2

    def test_close_ends_forgotten_spans_and_sink(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        tracer.span("left-open")
        tracer.close()
        tracer.close()  # idempotent
        assert [s["name"] for s in sink.spans] == ["left-open"]

    def test_null_tracer_is_inert(self):
        span = NULL_TRACER.span("anything", tags=1)
        assert span is NULL_SPAN
        span.set_tag("k", "v")
        span.sim_end = 9.0  # silently dropped
        assert span.sim_end is None
        NULL_TRACER.annotate("nothing")
        assert NULL_TRACER.current is None
        NULL_TRACER.adopt(span)
        NULL_TRACER.release(span)
        NULL_TRACER.close()
        assert not NULL_TRACER.enabled

    def test_span_ids_deterministic_across_tracers(self):
        def run():
            tracer = Tracer(MemorySink())
            with tracer.span("a", x=1):
                with tracer.span("b"):
                    tracer.annotate("note")
            tracer.close()
            return [
                (s["span_id"], s["parent_id"], s["name"], s["kind"], s["tags"])
                for s in tracer.sink.spans
            ]

        assert run() == run()

    def test_each_thread_nests_on_its_own_stack(self):
        tracer = Tracer(MemorySink())
        seen = {}

        def other():
            with tracer.span("other") as span:
                seen["parent"] = span.parent_id
                seen["current"] = tracer.current

        with tracer.span("main") as main:
            thread = threading.Thread(target=other)
            thread.start()
            thread.join()
            assert tracer.current is main  # the other thread popped nothing here
        assert seen["parent"] is None
        assert seen["current"].name == "other"
        ids = [s["span_id"] for s in tracer.sink.spans]
        assert sorted(ids) == [1, 2]  # one id counter for every thread

    def test_adopted_span_parents_another_threads_spans(self):
        tracer = Tracer(MemorySink())

        def handed_off(parent):
            tracer.adopt(parent)
            with tracer.span("batch"):
                pass
            tracer.span("forgotten")
            tracer.release(parent)  # ends "forgotten", leaves the parent open
            assert tracer.current is None

        with tracer.span("statement") as statement:
            thread = threading.Thread(target=handed_off, args=(statement,))
            thread.start()
            thread.join()
            assert tracer.current is statement
            assert [s["name"] for s in tracer.sink.spans] == ["batch", "forgotten"]
        spans = tracer.sink.spans
        assert [s["name"] for s in spans] == ["batch", "forgotten", "statement"]
        assert [s["parent_id"] for s in spans[:2]] == [statement.span_id] * 2


class TestJsonlRoundTrip:
    def test_write_then_load_preserves_tree(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        tracer = Tracer(JsonlSink(str(path)))
        with tracer.span("root", seed=3):
            with tracer.span("child"):
                tracer.annotate("event.arrival", sim_time=1.0)
        tracer.close()
        spans = load_spans(str(path))
        assert [s["name"] for s in spans] == ["event.arrival", "child", "root"]
        tree = build_tree(spans)
        assert [r["name"] for r in tree[None]] == ["root"]
        root_id = tree[None][0]["span_id"]
        assert [c["name"] for c in tree[root_id]] == ["child"]
        # Every record carries the full schema after the round trip.
        for record in spans:
            assert {"span_id", "parent_id", "name", "kind", "tags"} <= set(record)

    def test_jsonl_sink_unwritable_path_raises_configuration_error(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot open trace file"):
            JsonlSink(str(tmp_path / "no" / "such" / "dir" / "t.jsonl"))

    def test_load_spans_skips_corrupt_lines_with_warning(self, tmp_path):
        """A killed run's truncated tail must not make the trace unreadable."""
        import io

        path = tmp_path / "bad.jsonl"
        good = {"span_id": 1, "parent_id": None, "name": "root", "kind": "span"}
        path.write_text(
            json.dumps({"not": "a span"}) + "\n"
            + json.dumps(good) + "\n"
            + '{"span_id": 2, "truncated by a ki'  # mid-write kill
        )
        warnings = io.StringIO()
        spans = load_spans(str(path), warn=warnings)
        assert [s["span_id"] for s in spans] == [1]
        lines = warnings.getvalue().splitlines()
        assert len(lines) == 2
        assert "skipping non-span record" in lines[0]
        assert "skipping non-JSON trace line" in lines[1]

    def test_load_spans_unreadable_file_still_raises(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read trace file"):
            load_spans(str(tmp_path / "missing.jsonl"))


class TestHistogram:
    def test_percentiles_match_numpy_linear_interpolation(self):
        rng = np.random.default_rng(11)
        for values in (
            [1.0],
            [3.0, 1.0, 2.0],
            list(range(100)),
            list(rng.exponential(5.0, size=257)),
        ):
            hist = Histogram("h")
            for v in values:
                hist.observe(v)
            for q in (0, 10, 50, 90, 95, 99, 100):
                assert hist.percentile(q) == pytest.approx(
                    float(np.percentile(values, q))
                )

    def test_summary_statistics(self):
        hist = Histogram("h")
        for v in (2.0, 4.0, 6.0):
            hist.observe(v)
        assert hist.count == 3
        assert hist.total == pytest.approx(12.0)
        assert hist.mean == pytest.approx(4.0)
        assert hist.p50 == pytest.approx(4.0)

    def test_empty_histogram_is_zero(self):
        hist = Histogram("h")
        assert hist.count == 0 and hist.mean == 0.0 and hist.p95 == 0.0

    def test_percentile_range_validated(self):
        with pytest.raises(ValueError):
            Histogram("h").percentile(101)


class TestMetricsRegistry:
    def test_disabled_registry_drops_convenience_writes(self):
        registry = MetricsRegistry(enabled=False)
        registry.inc("c")
        registry.observe("h", 1.0)
        registry.set_gauge("g", 2.0)
        assert registry.counter("c").value == 0
        assert registry.histogram("h").count == 0
        # Direct handles still work — how PlatformStats keeps its totals.
        registry.counter("c").inc(5)
        assert registry.counter("c").value == 5

    def test_int_counters_stay_ints(self):
        registry = MetricsRegistry()
        registry.inc("n")
        registry.inc("n")
        assert registry.counter("n").value == 2
        assert isinstance(registry.counter("n").value, int)

    def test_snapshot_and_report(self):
        registry = MetricsRegistry()
        registry.inc("runs")
        registry.observe("lat", 3.0)
        snap = registry.snapshot()
        assert snap["counters"] == {"runs": 1}
        assert snap["histograms"]["lat"]["count"] == 1
        text = registry.report()
        assert "== metrics ==" in text and "runs = 1" in text and "lat:" in text


class TestLabeledMetrics:
    def test_label_sets_are_independent_series(self):
        registry = MetricsRegistry()
        registry.inc("op.runs", labels={"operator": "filter"})
        registry.inc("op.runs", 2, labels={"operator": "join"})
        registry.inc("op.runs")  # unlabeled sibling stays separate
        assert registry.counter("op.runs", {"operator": "filter"}).value == 1
        assert registry.counter("op.runs", {"operator": "join"}).value == 2
        assert registry.counter("op.runs").value == 1
        # Bare-name key preserved for unlabeled series (PlatformStats views).
        assert registry.counters["op.runs"].value == 1

    def test_label_order_does_not_split_series(self):
        registry = MetricsRegistry()
        registry.inc("x", labels={"a": "1", "b": "2"})
        registry.inc("x", labels={"b": "2", "a": "1"})
        assert registry.counter("x", {"a": "1", "b": "2"}).value == 2

    def test_label_values_coerced_to_str(self):
        from repro.obs import normalize_labels, series_key

        items = normalize_labels({"retry": 3})
        assert items == (("retry", "3"),)
        assert series_key("x", items) == 'x{retry="3"}'

    def test_snapshot_keys_labeled_series(self):
        registry = MetricsRegistry()
        registry.inc("x", labels={"k": "v"})
        registry.observe("h", 1.0, labels={"k": "v"})
        snap = registry.snapshot()
        assert snap["counters"] == {'x{k="v"}': 1}
        assert snap["histograms"]['h{k="v"}']["count"] == 1

    def test_histogram_bucket_counts_cumulative(self):
        hist = Histogram("h", buckets=(1.0, 5.0, 10.0))
        for value in (0.5, 0.7, 3.0, 20.0):
            hist.observe(value)
        assert hist.bucket_counts() == [2, 3, 3]
        assert hist.count == 4  # the implicit +Inf bucket
        assert hist.buckets == (1.0, 5.0, 10.0)

    def test_histogram_buckets_fixed_at_creation(self):
        registry = MetricsRegistry()
        first = registry.histogram("h", buckets=(1.0, 2.0))
        again = registry.histogram("h", buckets=(9.0,))
        assert again is first
        assert first.buckets == (1.0, 2.0)

    def test_snapshot_histogram_includes_sum_and_buckets(self):
        registry = MetricsRegistry()
        registry.observe("lat", 0.2)
        registry.observe("lat", 2.0)
        entry = registry.snapshot()["histograms"]["lat"]
        assert entry["sum"] == pytest.approx(2.2)
        assert entry["buckets"]["0.25"] == 1
        assert entry["buckets"]["5.0"] == 2

    def test_operator_span_records_labeled_families(self):
        platform, _, _ = traced_platform(metrics_enabled=True)
        from repro.operators.filter import FixedKFilter

        FixedKFilter(
            platform, "q?", truth_fn=lambda item: True, redundancy=3
        ).run(["a", "b"])
        metrics = platform.metrics
        labeled = metrics.counter("operator.runs", {"operator": "filter"})
        assert labeled.value == 1
        assert metrics.counter("operator.items", {"operator": "filter"}).value == 2
        answers = metrics.counter("operator.answers", {"operator": "filter"})
        assert answers.value == platform.stats.answers_collected == 6
        wall = metrics.histogram("operator.wall", {"operator": "filter"})
        assert wall.count == 1

    @pytest.mark.parametrize("operator", ["hybrid_sort", "topk_tournament"])
    def test_nested_operator_books_once(self, operator):
        """An operator run inside another (rating_sort in hybrid_sort,
        tournament_max in topk_tournament) books nothing of its own."""
        from repro.operators.sort import CrowdComparator, hybrid_sort
        from repro.operators.topk import topk_tournament

        sink = MemorySink()
        platform = SimulatedPlatform(
            WorkerPool.heterogeneous(10, 0.7, 0.95, seed=1),
            seed=2,
            tracer=Tracer(sink),
            metrics=MetricsRegistry(enabled=True),
        )
        if operator == "hybrid_sort":
            name = "sort"
            hybrid_sort(platform, list(range(8)), float, 3)
        else:
            name = "topk"
            comparator = CrowdComparator(platform, list(range(12)), float, redundancy=3)
            topk_tournament(comparator, k=3, fan_in=2)
        metrics, stats = platform.metrics, platform.stats
        labels = {"operator": name}
        assert stats.answers_collected > 0
        assert metrics.counter("operator.cost", labels).value == pytest.approx(
            stats.cost_spent
        )
        assert metrics.counter("operator.answers", labels).value == stats.answers_collected
        assert metrics.counter("operator.runs", labels).value == 1
        (span,) = [s for s in sink.spans if s["name"].startswith("operator.")]
        assert span["tags"]["cost"] == pytest.approx(stats.cost_spent)
        assert not platform.operator_open

    def test_cache_requests_labeled_by_outcome(self):
        """Each lookup outcome has one series, which the exposition serves."""
        from repro.obs.prom import parse_exposition, render_prometheus
        from repro.platform.cache import AnswerCache

        platform, _, _ = traced_platform(metrics_enabled=True)
        platform.attach_cache(AnswerCache())
        tasks = make_tasks(4)
        platform.collect(tasks, redundancy=3)
        platform.collect(tasks, redundancy=3)
        families = parse_exposition(render_prometheus(platform.metrics))
        (_, _, hits), = families["cache_hits_total"]["samples"]
        (_, _, misses), = families["cache_misses_total"]["samples"]
        assert misses == platform.stats.cache_misses == 4
        assert hits == platform.stats.cache_hits == 4

    @pytest.mark.parametrize(
        "faults",
        [{}, {"abandon_rate": 0.2, "assignment_timeout": 80.0, "retry_limit": 10}],
        ids=["fault_free", "faulty"],
    )
    def test_batch_assignment_outcomes_labeled(self, faults):
        platform, _, metrics = traced_platform(metrics_enabled=True, **faults)
        platform.collect(make_tasks(16), redundancy=3)
        stats = platform.stats
        outcomes = {
            dict(c.labels)["outcome"]: c.value
            for c in metrics.counters.values()
            if c.name == "batch.assignment_outcomes"
        }
        assert sum(outcomes.values()) == stats.assignments_dispatched
        for outcome, happened in (
            ("timeout", stats.assignments_timed_out),
            ("abandoned", stats.assignments_abandoned),
        ):
            assert outcomes.get(outcome, 0) == happened
            # A series exists only for an outcome that happened.
            assert (outcome in outcomes) == (happened > 0)
            assert (happened > 0) == bool(faults)
        assert outcomes["ok"] == stats.answers_collected

    def test_em_iterations_labeled_by_method(self):
        from repro.quality.truth import CATEGORICAL_METHODS

        from repro.platform.task import Answer

        registry = MetricsRegistry()
        answers = {
            f"t{i}": [
                Answer(f"t{i}", "w1", "yes"),
                Answer(f"t{i}", "w2", "yes"),
                Answer(f"t{i}", "w3", "no"),
            ]
            for i in range(6)
        }
        method = CATEGORICAL_METHODS["ds"]()
        method.metrics = registry
        result = method.infer(answers)
        # A method built without instruments keeps the no-op pair.
        alone = CATEGORICAL_METHODS["ds"]()
        assert alone.tracer is NULL_TRACER and not alone.metrics.enabled
        alone.infer(answers)
        iterations = registry.counter("em.iterations", {"method": "ds"}).value
        assert iterations == result.iterations > 0
        deltas = registry.histogram("em.delta", {"method": "ds"})
        assert deltas.count == iterations
        assert not alone.metrics.counters and not alone.metrics.histograms


class TestEventSimulatorObs:
    def test_timeline_span_counts_every_event(self):
        platform, tracer, _ = traced_platform()
        platform.simulate_timeline(make_tasks(3), redundancy=2)
        spans = tracer.sink.spans
        (timeline,) = [s for s in spans if s["name"] == "timeline"]
        events = [s for s in spans if s["name"].startswith("event.")]
        assert timeline["tags"]["events"] == len(events) > 0

    def test_events_become_annotations(self):
        tracer = Tracer(MemorySink())
        sim = EventSimulator(tracer=tracer)
        sim.schedule(1.0, "arrival", worker="w1")
        list(sim.drain())
        notes = [s for s in tracer.sink.spans if s["kind"] == "annotation"]
        assert [n["name"] for n in notes] == ["event.arrival"]
        assert notes[0]["sim_start"] == 1.0
        assert notes[0]["tags"] == {"worker": "w1"}


class TestPlatformTracing:
    def test_batch_spans_cover_the_run(self):
        platform, tracer, metrics = traced_platform()
        platform.scheduler.run(make_tasks(20), redundancy=2)
        batch_spans = [s for s in tracer.sink.spans if s["name"] == "batch"]
        assert len(batch_spans) == platform.stats.batches_dispatched
        for span in batch_spans:
            assert span["sim_end"] >= span["sim_start"]
            assert span["tags"]["dispatched"] >= span["tags"]["tasks"]
        assert metrics.histogram("batch.assignment_latency").count == 40
        assert metrics.histogram("batch.retries_per_task").count == 20

    def test_span_stream_deterministic_under_fixed_seed(self):
        def run():
            platform, tracer, _ = traced_platform(seed=13)
            platform.scheduler.run(make_tasks(12), redundancy=3)
            tracer.close()
            return [
                (
                    s["span_id"],
                    s["parent_id"],
                    s["name"],
                    s["kind"],
                    s["tags"],
                )
                for s in tracer.sink.spans
            ]

        assert run() == run()


class TestEngineObservability:
    def test_engine_trace_has_root_covering_operators(self, tmp_path):
        path = tmp_path / "engine.jsonl"
        config = EngineConfig(
            seed=5,
            inference="ds",
            trace_path=str(path),
            metrics_enabled=True,
            max_parallel=4,
            batch_size=8,
        )
        with CrowdEngine(config) as engine:
            engine.filter(list(range(8)), "small?", lambda i: i < 4)
        spans = load_spans(str(path))
        tree = build_tree(spans)
        roots = tree[None]
        assert [r["name"] for r in roots] == ["engine"]
        names = {s["name"] for s in spans}
        assert "operator.filter" in names and "batch" in names
        # Everything hangs off the root span.
        root_id = roots[0]["span_id"]
        by_id = {s["span_id"]: s for s in spans}
        for span in spans:
            node = span
            while node["parent_id"] is not None:
                node = by_id[node["parent_id"]]
            assert node["span_id"] == root_id

    def test_engine_em_iterations_traced(self, tmp_path):
        path = tmp_path / "em.jsonl"
        config = EngineConfig(seed=5, inference="ds", trace_path=str(path))
        with CrowdEngine(config) as engine:
            engine.categorize(
                ["a1", "a2", "b1", "b2"],
                categories=("a", "b"),
                truth_fn=lambda item: item[0],
            )
        spans = load_spans(str(path))
        truth_spans = [s for s in spans if s["name"] == "truth.ds"]
        assert truth_spans and truth_spans[0]["tags"]["iterations"] >= 1
        iters = [s for s in spans if s["name"] == "em.iteration"]
        assert iters and all(s["parent_id"] == truth_spans[0]["span_id"] for s in iters)

    def test_em_metrics_stay_with_the_engine_that_ran_them(self):
        config = EngineConfig(seed=1, inference="ds", metrics_enabled=True)
        first, second = CrowdEngine(config), CrowdEngine(config)
        items = [f"{c}{i}" for c in "abc" for i in range(10)]

        def categorize():
            first.categorize(items, categories=("a", "b", "c"), truth_fn=lambda i: i[0])
            counters = first.metrics.counters
            return (
                counters['em.iterations{method="ds"}'].value,
                first.metrics.histograms['em.delta{method="ds"}'].count,
            )

        iterations, deltas = categorize()
        assert iterations == deltas > 0
        second.close()
        assert categorize() == (2 * iterations, 2 * deltas)
        first.close()
        assert not [
            key
            for key in (*second.metrics.counters, *second.metrics.histograms)
            if key.startswith("em.")
        ]

    def test_each_quantity_is_booked_in_one_series(self):
        """An operator, DS inference, cache hits, hedges and a LIMIT's
        cancellations each land in one series, never in a second alias."""
        import re

        from repro.lang.executor import CrowdOracle

        config = EngineConfig(
            seed=3, inference="ds", metrics_enabled=True, max_parallel=4,
            hedge_enabled=True, pipeline=True, cache_enabled=True,
        )
        oracle = CrowdOracle(filter_fn=lambda value, _q: int(value.split()[-1]) % 2 == 0)
        with CrowdEngine(config, oracle=oracle) as engine:
            engine.platform.attach_scheduler(
                replace(engine.scheduler.config, hedge_min_samples=8)
            )
            engine.sql("CREATE TABLE t (k STRING, price INTEGER, PRIMARY KEY (k))")
            engine.table("t").insert_many([{"k": f"key {i}", "price": i} for i in range(80)])
            engine.categorize(
                [f"{c}{i}" for c in "ab" for i in range(15)],
                categories=("a", "b"),
                truth_fn=lambda item: item[0],
            )
            sql = "SELECT k FROM t WHERE CROWDFILTER(k, 'even?') ORDER BY price LIMIT 3"
            engine.query(sql)
            engine.query(sql)
        stats, metrics = engine.stats, engine.metrics
        assert stats.hedges_launched and stats.cache_hits and stats.tasks_cancelled
        assert metrics.counters['operator.runs{operator="categorize"}'].value == 1
        assert metrics.counters['em.iterations{method="ds"}'].value > 0
        names = {
            series.name
            for series in (*metrics.counters.values(), *metrics.histograms.values())
        }
        deleted = {
            name
            for name in names
            if name in ("cache.requests", "batch.hedges", "batch.cancellations")
            or re.fullmatch(r"operator\.\w+\.(runs|cost|answers|wall)", name)
            or re.fullmatch(r"em\.\w+\.delta", name)
        }
        assert not deleted

    def test_metrics_report_reaches_engine(self):
        engine = CrowdEngine(EngineConfig(seed=3, metrics_enabled=True))
        engine.filter(list(range(6)), "small?", lambda i: i < 3)
        report = engine.metrics_report()
        assert 'operator.runs{operator="filter"} = 1' in report
        engine.close()
        engine.close()  # idempotent

    def test_observability_off_by_default(self):
        engine = CrowdEngine(EngineConfig(seed=3))
        assert engine.tracer is NULL_TRACER
        assert not engine.metrics.enabled
        engine.filter(list(range(4)), "small?", lambda i: i < 2)
        assert engine.metrics.histograms.get('operator.wall{operator="filter"}') is None
        engine.close()

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            EngineConfig(trace_path="")

    def test_stats_and_metrics_are_one_source_of_truth(self):
        platform, _, metrics = traced_platform()
        platform.scheduler.run(make_tasks(4), redundancy=1)
        assert platform.stats.cost_spent == pytest.approx(
            metrics.counter("platform.cost_spent").value
        )
        assert (
            platform.stats.answers_collected
            == metrics.counter("platform.answers_collected").value
        )
        assert isinstance(PlatformStats().answers_collected, int)


class TestTraceReport:
    def test_report_renders_all_sections(self, tmp_path):
        path = tmp_path / "run.jsonl"
        config = EngineConfig(
            seed=5,
            inference="ds",
            trace_path=str(path),
            metrics_enabled=True,
            max_parallel=4,
            batch_size=8,
        )
        with CrowdEngine(config) as engine:
            engine.filter(list(range(10)), "small?", lambda i: i < 5)
            engine.categorize(
                ["a1", "a2", "b1", "b2"],
                categories=("a", "b"),
                truth_fn=lambda item: item[0],
            )
        text = report_from_file(str(path))
        assert "per-operator breakdown" in text
        assert "batch runtime" in text
        assert "truth inference (EM)" in text
        assert "slowest spans" in text
        assert "filter" in text

    def test_render_report_in_memory(self):
        platform, tracer, _ = traced_platform()
        platform.scheduler.run(make_tasks(5), redundancy=1)
        tracer.close()
        text = render_report(tracer.sink.spans)
        assert "trace:" in text and "batch runtime" in text

    def test_missing_file_raises(self):
        with pytest.raises(ConfigurationError, match="cannot read trace file"):
            report_from_file("/nonexistent/trace.jsonl")
