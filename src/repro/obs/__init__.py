"""repro.obs: end-to-end tracing and metrics for the crowd pipeline.

The tutorial's pillars — quality, cost, latency — are all *measured*
quantities, so the pipeline carries a first-class observability layer:

* :class:`~repro.obs.tracer.Tracer` — hierarchical spans (engine →
  statement → operator → batch → retry/EM-iteration) with wall-clock
  and simulated-clock timestamps, exported as JSONL.
* :class:`~repro.obs.metrics.MetricsRegistry` — counters, gauges, and
  percentile histograms; also the backing store for
  :class:`~repro.platform.platform.PlatformStats`.
* Sinks (:mod:`repro.obs.sinks`) and the trace-report renderer
  (:mod:`repro.obs.report`), whose per-statement report reads the
  ``statement`` spans :class:`~repro.obs.instrument.statement_span`
  records and the operator spans under them.
* Prometheus text exposition (:mod:`repro.obs.prom`) and a stdlib
  live-ops HTTP server (:mod:`repro.obs.server`).

Everything defaults to off: :data:`~repro.obs.tracer.NULL_TRACER` and a
disabled registry keep the instrumented hot path within noise of an
uninstrumented build (guarded by ``bench_batch_runtime --quick``).
"""

from repro.obs.instrument import operator_span
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    normalize_labels,
    series_key,
)
from repro.obs.prom import (
    CONTENT_TYPE,
    DESCRIPTORS,
    ExpositionError,
    MetricDescriptor,
    parse_exposition,
    prom_name_for,
    render_prometheus,
    validate_exposition,
)
from repro.obs.report import build_tree, load_spans, render_report, report_from_file
from repro.obs.server import MetricsServer
from repro.obs.sinks import JsonlSink, MemorySink, NullSink, TraceSink
from repro.obs.tracer import NULL_SPAN, NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "CONTENT_TYPE",
    "DEFAULT_BUCKETS",
    "DESCRIPTORS",
    "NULL_SPAN",
    "NULL_TRACER",
    "Counter",
    "ExpositionError",
    "Gauge",
    "Histogram",
    "JsonlSink",
    "MemorySink",
    "MetricDescriptor",
    "MetricsRegistry",
    "MetricsServer",
    "NullSink",
    "NullTracer",
    "Span",
    "TraceSink",
    "Tracer",
    "build_tree",
    "load_spans",
    "normalize_labels",
    "operator_span",
    "parse_exposition",
    "prom_name_for",
    "render_prometheus",
    "render_report",
    "report_from_file",
    "series_key",
    "validate_exposition",
]
