"""Prometheus exposition conformance tests (repro.obs.prom).

Round-trips rendered output through the minimal conformance parser, and
pins the parts of the format a real scraper depends on: name/label
syntax, escaping, NaN/±Inf spelling, cumulative buckets with a ``+Inf``
terminator, and bit-identical re-renders of a fixed registry.
"""

import math
from pathlib import Path

import pytest

import repro
from repro.obs import MetricsRegistry
from repro.obs.prom import (
    CONTENT_TYPE,
    DESCRIPTOR_INDEX,
    DESCRIPTORS,
    ExpositionError,
    escape_label_value,
    format_value,
    parse_exposition,
    prom_name_for,
    render_prometheus,
    sanitize_metric_name,
    validate_exposition,
)


class TestDescriptorTable:
    def test_internal_names_are_unique(self):
        assert len(DESCRIPTOR_INDEX) == len(DESCRIPTORS)

    def test_naming_scheme_subsystem_name_unit(self):
        for descriptor in DESCRIPTORS:
            assert "." not in descriptor.prom_name
            subsystem = descriptor.name.split(".", 1)[0]
            assert descriptor.prom_name.startswith(subsystem + "_"), descriptor
            if descriptor.kind == "counter":
                assert descriptor.prom_name.endswith("_total"), descriptor
            else:
                assert not descriptor.prom_name.endswith("_total"), descriptor

    def test_every_descriptor_has_help(self):
        for descriptor in DESCRIPTORS:
            assert descriptor.help.strip()
            assert descriptor.kind in ("counter", "gauge", "histogram")

    def test_documented_aliases_cover_platform_stats_metrics(self):
        """Every PlatformStats-backed metric must have an exposition name."""
        from repro.platform.platform import _STAT_METRICS

        for metric in _STAT_METRICS.values():
            assert metric in DESCRIPTOR_INDEX, metric

    def test_prom_name_for_descriptor_hit(self):
        prom, help_text, buckets = prom_name_for("platform.tasks_published", "counter")
        assert prom == "platform_hits_published_total"
        assert help_text
        assert buckets is None

    def test_prom_name_for_dynamic_family_sanitizes(self):
        prom, _, _ = prom_name_for("faults.worker-quake", "counter")
        assert prom == "faults_worker_quake_total"
        prom, _, _ = prom_name_for("operator.filter.wall", "histogram")
        assert prom == "operator_filter_wall"

    def test_sanitize_handles_leading_digit(self):
        assert sanitize_metric_name("9lives") == "_9lives"

    def test_every_descriptor_is_recorded_by_src(self):
        """A descriptor outlives its metric when no other module names it."""
        package = Path(repro.__file__).parent
        table = package / "obs" / "prom.py"
        sources = [
            path.read_text(encoding="utf-8")
            for path in sorted(package.rglob("*.py"))
            if path != table
        ]
        unrecorded = [
            descriptor.name
            for descriptor in DESCRIPTORS
            if not any(
                f'"{descriptor.name}"' in text or f"'{descriptor.name}'" in text
                for text in sources
            )
        ]
        assert unrecorded == []


class TestFormatting:
    def test_escape_label_value(self):
        assert escape_label_value('a\\b"c\nd') == 'a\\\\b\\"c\\nd'

    def test_format_value_specials(self):
        assert format_value(math.nan) == "NaN"
        assert format_value(math.inf) == "+Inf"
        assert format_value(-math.inf) == "-Inf"
        assert format_value(3.0) == "3"
        assert format_value(0.25) == "0.25"
        assert format_value(7) == "7"


def registry_with_everything():
    registry = MetricsRegistry(enabled=True)
    registry.inc("platform.tasks_published", 5)
    registry.inc("platform.cost_spent", 1.25)
    registry.inc("cache.requests", 3, labels={"outcome": "hit"})
    registry.inc("cache.requests", 2, labels={"outcome": "miss"})
    registry.inc("operator.runs", labels={"operator": "filter"})
    registry.inc("operator.runs", labels={"operator": "join"})
    registry.set_gauge("pool.size", 25)
    registry.observe("batch.assignment_latency", 0.3)
    registry.observe("batch.assignment_latency", 40.0)
    registry.observe("operator.wall", 0.02, labels={"operator": "filter"})
    return registry


class TestRender:
    def test_round_trips_through_conformance_parser(self):
        text = render_prometheus(registry_with_everything())
        families = parse_exposition(text)
        assert families["platform_hits_published_total"]["samples"] == [
            ("platform_hits_published_total", (), 5.0)
        ]
        hits = {
            labels: value
            for _, labels, value in families["cache_requests_total"]["samples"]
        }
        assert hits[(("outcome", "hit"),)] == 3.0
        assert hits[(("outcome", "miss"),)] == 2.0
        assert validate_exposition(text) > 0

    def test_help_and_type_precede_samples(self):
        text = render_prometheus(registry_with_everything())
        lines = text.splitlines()
        seen_types: dict[str, int] = {}
        for index, line in enumerate(lines):
            if line.startswith("# TYPE "):
                seen_types[line.split(" ")[2]] = index
        for index, line in enumerate(lines):
            if line.startswith("#"):
                continue
            name = line.split("{", 1)[0].split(" ", 1)[0]
            base = name
            for suffix in ("_bucket", "_sum", "_count"):
                if name.endswith(suffix) and name[: -len(suffix)] in seen_types:
                    base = name[: -len(suffix)]
            assert seen_types[base] < index

    def test_histogram_buckets_cumulative_and_inf_terminated(self):
        registry = MetricsRegistry(enabled=True)
        for value in (0.001, 0.3, 0.3, 7.0, 1000.0):
            registry.observe("batch.assignment_latency", value)
        text = render_prometheus(registry)
        families = parse_exposition(text)
        samples = families["batch_assignment_latency_seconds"]["samples"]
        buckets = [
            (dict(labels)["le"], value)
            for name, labels, value in samples
            if name.endswith("_bucket")
        ]
        assert buckets[-1] == ("+Inf", 5.0)
        counts = [value for _, value in buckets]
        assert counts == sorted(counts)
        count = [v for n, _, v in samples if n.endswith("_count")][0]
        assert count == 5.0
        total = [v for n, _, v in samples if n.endswith("_sum")][0]
        assert total == pytest.approx(1007.601)

    def test_descriptor_bucket_override_applies(self):
        registry = MetricsRegistry(enabled=True)
        registry.observe("batch.retries_per_task", 0.0)
        registry.observe("batch.retries_per_task", 3.0)
        text = render_prometheus(registry)
        assert 'batch_retries_per_task_bucket{le="16"} 2' in text
        assert 'batch_retries_per_task_bucket{le="2"} 1' in text

    def test_label_escaping_round_trips(self):
        registry = MetricsRegistry(enabled=True)
        nasty = 'he said "hi\\there"\nbye'
        registry.inc("faults.custom", labels={"kind": nasty})
        text = render_prometheus(registry)
        families = parse_exposition(text)
        ((_, labels, value),) = families["faults_custom_total"]["samples"]
        assert dict(labels)["kind"] == nasty
        assert value == 1.0

    def test_rerender_is_bit_identical(self):
        registry = registry_with_everything()
        first = render_prometheus(registry)
        assert render_prometheus(registry) == first

    def test_special_float_values_survive(self):
        registry = MetricsRegistry(enabled=True)
        registry.set_gauge("budget.remaining", math.inf)
        registry.set_gauge("budget.nan", math.nan)
        text = render_prometheus(registry)
        families = parse_exposition(text)
        ((_, _, inf_value),) = families["budget_remaining"]["samples"]
        assert math.isinf(inf_value)
        ((_, _, nan_value),) = families["budget_nan"]["samples"]
        assert math.isnan(nan_value)

    def test_empty_registry_renders_empty_body(self):
        assert render_prometheus(MetricsRegistry(enabled=True)) == "\n"
        assert validate_exposition("\n") == 0

    def test_content_type_pins_format_version(self):
        assert "version=0.0.4" in CONTENT_TYPE


class TestConformanceParser:
    def test_rejects_sample_without_type(self):
        with pytest.raises(ExpositionError, match="no preceding # TYPE"):
            parse_exposition("orphan_metric 1\n")

    def test_rejects_duplicate_series(self):
        body = (
            "# TYPE x counter\n"
            'x{a="1"} 1\n'
            'x{a="1"} 2\n'
        )
        with pytest.raises(ExpositionError, match="duplicate series"):
            parse_exposition(body)

    def test_rejects_malformed_labels(self):
        body = "# TYPE x counter\nx{a=1} 1\n"
        with pytest.raises(ExpositionError, match="malformed label set"):
            parse_exposition(body)

    def test_rejects_unparseable_value(self):
        body = "# TYPE x counter\nx banana\n"
        with pytest.raises(ExpositionError, match="unparseable sample value"):
            parse_exposition(body)

    def test_rejects_histogram_missing_inf_bucket(self):
        body = (
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 1\n'
            "h_sum 1\n"
            "h_count 1\n"
        )
        with pytest.raises(ExpositionError, match="missing \\+Inf"):
            parse_exposition(body)

    def test_rejects_non_monotone_buckets(self):
        body = (
            "# TYPE h histogram\n"
            'h_bucket{le="1"} 5\n'
            'h_bucket{le="2"} 3\n'
            'h_bucket{le="+Inf"} 5\n'
            "h_count 5\n"
        )
        with pytest.raises(ExpositionError, match="not monotone"):
            parse_exposition(body)

    def test_rejects_inf_bucket_count_mismatch(self):
        body = (
            "# TYPE h histogram\n"
            'h_bucket{le="+Inf"} 4\n'
            "h_count 5\n"
        )
        with pytest.raises(ExpositionError, match="\\+Inf bucket != _count"):
            parse_exposition(body)

    def test_rejects_duplicate_type_line(self):
        body = "# TYPE x counter\n# TYPE x counter\n"
        with pytest.raises(ExpositionError, match="duplicate TYPE"):
            parse_exposition(body)


class TestEngineExposition:
    def test_engine_run_renders_conformant_exposition(self):
        from repro.core import CrowdEngine, EngineConfig

        with CrowdEngine(EngineConfig(metrics_enabled=True, seed=5)) as engine:
            engine.sql(
                "CREATE TABLE t (a STRING, s FLOAT, PRIMARY KEY (a));"
                "INSERT INTO t VALUES ('x', 1.0), ('y', 2.0), ('z', 3.0);"
                "SELECT a FROM t CROWDORDER BY s LIMIT 2;"
            )
            text = render_prometheus(engine.metrics)
        families = parse_exposition(text)
        assert validate_exposition(text) > 0
        published = families["platform_hits_published_total"]["samples"][0][2]
        assert published > 0
        # Labeled operator family carries the same run.
        runs = families["operator_runs_total"]["samples"]
        assert any(dict(labels).get("operator") == "sort" for _, labels, _ in runs)
