"""Prometheus text exposition for the metrics registry.

Renders a :class:`~repro.obs.metrics.MetricsRegistry` in the
``text/plain; version=0.0.4`` exposition format — ``# HELP`` / ``# TYPE``
lines, escaped label values, and ``_bucket`` / ``_sum`` / ``_count``
series (with the mandatory ``+Inf`` bucket) for histograms.

The :data:`DESCRIPTORS` table is the **single naming authority**: it maps
every internal dotted metric name (``platform.tasks_published``) to its
exposition name under the one ``subsystem_name_unit`` scheme
(``platform_hits_published_total``), its type, and its help text. Each
quantity is booked in one series: the dotted name is its registry key,
which :class:`~repro.platform.platform.PlatformStats` views and
statement spans read, and the exposition name is what a scraper sees of the same
series. Metrics without a descriptor (dynamic families like
``faults.<kind>``) are auto-named by :func:`prom_name_for`, so the
renderer is total over any registry state.

:func:`parse_exposition` is the minimal conformance parser the format
tests and the CI smoke job round-trip scrapes through: it checks name and
label syntax, HELP/TYPE placement, histogram bucket monotonicity, and the
``+Inf``-equals-``_count`` invariant.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from repro.obs.metrics import MetricsRegistry

#: Content-Type a conforming scrape endpoint must serve.
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


@dataclass(frozen=True)
class MetricDescriptor:
    """Naming contract for one metric family.

    Attributes:
        name: Internal registry family name (dotted).
        prom_name: Exposition name — ``subsystem_name_unit`` (+ ``_total``
            for counters).
        kind: ``counter`` | ``gauge`` | ``histogram``.
        help: One-line HELP text.
        buckets: Histogram bucket override; None uses the series' own
            (:data:`~repro.obs.metrics.DEFAULT_BUCKETS` unless the call
            site fixed different boundaries at creation).
    """

    name: str
    prom_name: str
    kind: str
    help: str
    buckets: "tuple[float, ...] | None" = None


_RETRY_BUCKETS = (0.0, 1.0, 2.0, 4.0, 8.0, 16.0)
_DELTA_BUCKETS = (1e-8, 1e-6, 1e-4, 1e-3, 1e-2, 1e-1, 1.0)

DESCRIPTORS: tuple[MetricDescriptor, ...] = (
    # platform
    MetricDescriptor(
        "platform.answers_collected", "platform_answers_collected_total", "counter",
        "Crowd answers committed to the platform answer log.",
    ),
    MetricDescriptor(
        "platform.tasks_published", "platform_hits_published_total", "counter",
        "Tasks (HITs) published to the simulated marketplace.",
    ),
    MetricDescriptor(
        "platform.cost_spent", "platform_cost_spent_dollars_total", "counter",
        "Budget spent on crowd answers, in task-reward currency.",
    ),
    # batch runtime
    MetricDescriptor(
        "batch.batches_dispatched", "batch_batches_dispatched_total", "counter",
        "Dispatch waves executed by the batch scheduler.",
    ),
    MetricDescriptor(
        "batch.assignments_dispatched", "batch_assignments_dispatched_total", "counter",
        "Assignment attempts sent to workers (including retries).",
    ),
    MetricDescriptor(
        "batch.assignments_retried", "batch_assignments_retried_total", "counter",
        "Assignment attempts that were retries after a fault.",
    ),
    MetricDescriptor(
        "batch.assignments_timed_out", "batch_assignments_timed_out_total", "counter",
        "Assignments reclaimed because they exceeded the timeout.",
    ),
    MetricDescriptor(
        "batch.assignments_abandoned", "batch_assignments_abandoned_total", "counter",
        "Assignments silently abandoned by workers.",
    ),
    MetricDescriptor(
        "batch.assignment_outcomes", "batch_assignment_outcomes_total", "counter",
        "Assignment attempts by outcome label (ok|timeout|abandoned).",
    ),
    MetricDescriptor(
        "batch.makespan", "batch_sim_makespan_seconds_total", "counter",
        "Simulated seconds of batch makespan, summed over batches.",
    ),
    MetricDescriptor(
        "batch.wall_clock", "batch_wall_seconds_total", "counter",
        "Real seconds spent dispatching batches.",
    ),
    MetricDescriptor(
        "batch.outage_wait", "batch_outage_wait_seconds_total", "counter",
        "Simulated seconds batches stalled waiting out platform outages.",
    ),
    MetricDescriptor(
        "batch.hedges_launched", "batch_hedges_launched_total", "counter",
        "Speculative hedge copies launched against in-flight stragglers.",
    ),
    MetricDescriptor(
        "batch.hedges_won", "batch_hedges_won_total", "counter",
        "Hedge copies that answered before their straggling primary.",
    ),
    MetricDescriptor(
        "batch.hedges_lost", "batch_hedges_lost_total", "counter",
        "Hedge copies cancelled because the primary answered first.",
    ),
    MetricDescriptor(
        "batch.hedges_cancelled", "batch_hedges_cancelled_total", "counter",
        "Hedge copies that faulted in flight (distinct from abandonment).",
    ),
    MetricDescriptor(
        "batch.hedge_cost_refunded", "batch_hedge_cost_refunded_dollars_total", "counter",
        "Spend refunded by cancelling the losing copy of a hedge pair.",
    ),
    MetricDescriptor(
        "batch.tasks_cancelled", "batch_tasks_cancelled_total", "counter",
        "Crowd questions a streamed LIMIT never reached, so never published.",
    ),
    MetricDescriptor(
        "batch.cancel_cost_refunded", "batch_cancel_cost_refunded_dollars_total", "counter",
        "Spend avoided by the questions a streamed LIMIT never reached.",
    ),
    MetricDescriptor(
        "operators.in_flight", "operators_in_flight", "gauge",
        "Crowd tasks currently in flight, by streaming operator label.",
    ),
    MetricDescriptor(
        "batch.assignment_latency", "batch_assignment_latency_seconds", "histogram",
        "Simulated service time of committed assignments.",
    ),
    MetricDescriptor(
        "batch.retries_per_task", "batch_retries_per_task", "histogram",
        "Retries each task needed within a batch (0 = first try landed).",
        buckets=_RETRY_BUCKETS,
    ),
    # answer cache
    MetricDescriptor(
        "cache.hits", "cache_hits_total", "counter",
        "Tasks served entirely from the answer cache.",
    ),
    MetricDescriptor(
        "cache.misses", "cache_misses_total", "counter",
        "Tasks that had to be published to the crowd.",
    ),
    MetricDescriptor(
        "cache.coalesced", "cache_coalesced_total", "counter",
        "Duplicate in-flight tasks coalesced onto a canonical miss.",
    ),
    MetricDescriptor(
        "cache.evictions", "cache_evictions_total", "counter",
        "Entries evicted by the cache's LRU bound.",
    ),
    MetricDescriptor(
        "cache.answers_reused", "cache_answers_reused_total", "counter",
        "Individual answers replayed from the cache.",
    ),
    MetricDescriptor(
        "cache.cost_saved", "cache_cost_saved_dollars_total", "counter",
        "Spend avoided by answer reuse, at the pricing policy's rate.",
    ),
    # operators (labeled by operator)
    MetricDescriptor(
        "operator.runs", "operator_runs_total", "counter",
        "Operator executions, labeled by operator.",
    ),
    MetricDescriptor(
        "operator.cost", "operator_cost_dollars_total", "counter",
        "Crowd spend attributed to each operator.",
    ),
    MetricDescriptor(
        "operator.answers", "operator_answers_total", "counter",
        "Crowd answers attributed to each operator.",
    ),
    MetricDescriptor(
        "operator.items", "operator_items_total", "counter",
        "Input items (rows in) processed by each operator.",
    ),
    MetricDescriptor(
        "operator.wall", "operator_wall_seconds", "histogram",
        "Wall-clock seconds per operator execution.",
    ),
    # truth inference
    MetricDescriptor(
        "em.iterations", "em_iterations_total", "counter",
        "EM iterations executed, labeled by inference method.",
    ),
    MetricDescriptor(
        "em.delta", "em_convergence_delta", "histogram",
        "Per-iteration EM convergence delta, labeled by method.",
        buckets=_DELTA_BUCKETS,
    ),
    # recovery & faults
    MetricDescriptor(
        "recovery.breaker_trips", "recovery_breaker_trips_total", "counter",
        "Circuit-breaker trips observed at batch boundaries.",
    ),
    MetricDescriptor(
        "recovery.tasks_failed", "recovery_tasks_failed_total", "counter",
        "Tasks recorded as failed under skip/degrade policies.",
    ),
    MetricDescriptor(
        "faults.outage_delays", "faults_outage_delays_total", "counter",
        "Batches stalled by an injected platform outage.",
    ),
    MetricDescriptor(
        "faults.outage_wait", "faults_outage_wait_seconds", "histogram",
        "Simulated seconds of injected outage stall per batch.",
    ),
    MetricDescriptor(
        "faults.stragglers", "faults_stragglers_total", "counter",
        "Assignments inflated by an injected straggler spike.",
    ),
    # latency rounds
    MetricDescriptor(
        "round.duration", "round_sim_duration_seconds", "histogram",
        "Simulated makespan of each retainer/round timeline.",
    ),
    # multi-tenant service
    MetricDescriptor(
        "service.tasks_dispatched", "service_tasks_dispatched_total", "counter",
        "Crowd tasks dispatched to the shared platform, labeled by tenant.",
    ),
    MetricDescriptor(
        "service.units_admitted", "service_units_admitted_total", "counter",
        "Work units admitted past admission control, labeled by tenant.",
    ),
    MetricDescriptor(
        "service.units_rejected", "service_units_rejected_total", "counter",
        "Work units rejected by admission control, labeled by tenant+reason.",
    ),
    MetricDescriptor(
        "service.queue_depth", "service_queue_depth", "gauge",
        "Work units waiting in each tenant's queue.",
    ),
    MetricDescriptor(
        "service.queue_wait", "service_queue_wait_units", "histogram",
        "Dispatcher turns a work unit waited in its tenant queue.",
        buckets=(0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0),
    ),
)

DESCRIPTOR_INDEX: dict[str, MetricDescriptor] = {d.name: d for d in DESCRIPTORS}

_PROM_BY_NAME: dict[str, MetricDescriptor] = {d.prom_name: d for d in DESCRIPTORS}
if len(_PROM_BY_NAME) != len(DESCRIPTORS):  # pragma: no cover - table invariant
    raise RuntimeError("duplicate prom_name in metric descriptor table")


def sanitize_metric_name(name: str) -> str:
    """Fallback exposition name for a family without a descriptor."""
    cleaned = re.sub(r"[^a-zA-Z0-9_:]", "_", name)
    if not cleaned or not _NAME_RE.match(cleaned):
        cleaned = f"_{cleaned}"
    return cleaned


def prom_name_for(name: str, kind: str) -> tuple[str, str, "tuple[float, ...] | None"]:
    """Resolve a family to ``(prom_name, help, bucket_override)``.

    Descriptor-listed families use the table; anything else is sanitized,
    with counters given the conventional ``_total`` suffix.
    """
    descriptor = DESCRIPTOR_INDEX.get(name)
    if descriptor is not None:
        return descriptor.prom_name, descriptor.help, descriptor.buckets
    prom = sanitize_metric_name(name)
    if kind == "counter" and not prom.endswith("_total"):
        prom += "_total"
    return prom, f"Auto-named from internal metric {name!r}.", None


def escape_label_value(value: str) -> str:
    """Escape a label value per the exposition format."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def escape_help(text: str) -> str:
    """Escape HELP text per the exposition format."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def format_value(value: float) -> str:
    """Render a sample value (ints bare; NaN/±Inf spelled per the format)."""
    if isinstance(value, float):
        if math.isnan(value):
            return "NaN"
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return repr(value)
    return str(value)


def _format_bound(bound: float) -> str:
    """``le`` label text for a bucket bound (trim integral floats)."""
    if bound == int(bound) and abs(bound) < 1e15:
        return str(int(bound))
    return repr(float(bound))


def _labels_text(labels, extra: "tuple[tuple[str, str], ...]" = ()) -> str:
    items = tuple(labels) + extra
    if not items:
        return ""
    inner = ",".join(f'{k}="{escape_label_value(v)}"' for k, v in items)
    return "{" + inner + "}"


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry in the ``text/plain; version=0.0.4`` exposition format.

    Output is a pure function of registry state: families sort by
    exposition name, series within a family by label tuple, so re-rendering
    a fixed registry is bit-identical — the stability the conformance
    tests pin.
    """
    families: dict[str, dict] = {}

    def family(name: str, kind: str) -> dict:
        prom, help_text, buckets = prom_name_for(name, kind)
        entry = families.setdefault(
            prom, {"kind": kind, "help": help_text, "buckets": buckets, "series": []}
        )
        return entry

    # Iterate copies taken under the registry's creation lock: the service
    # run loop mints new labeled series concurrently with scrapes, and
    # iterating the live dicts would race their first-use inserts.
    counters, gauges, histograms = registry.series_snapshot()
    for counter in counters.values():
        family(counter.name, "counter")["series"].append(counter)
    for gauge in gauges.values():
        family(gauge.name, "gauge")["series"].append(gauge)
    for hist in histograms.values():
        family(hist.name, "histogram")["series"].append(hist)

    lines: list[str] = []
    for prom in sorted(families):
        entry = families[prom]
        kind = entry["kind"]
        lines.append(f"# HELP {prom} {escape_help(entry['help'])}")
        lines.append(f"# TYPE {prom} {kind}")
        for series in sorted(entry["series"], key=lambda s: s.labels):
            if kind in ("counter", "gauge"):
                lines.append(
                    f"{prom}{_labels_text(series.labels)} {format_value(series.value)}"
                )
                continue
            bounds = entry["buckets"] or series.buckets
            counts = series.bucket_counts(bounds)
            for bound, cumulative in zip(bounds, counts, strict=True):
                labels = _labels_text(series.labels, (("le", _format_bound(bound)),))
                lines.append(f"{prom}_bucket{labels} {cumulative}")
            inf_labels = _labels_text(series.labels, (("le", "+Inf"),))
            lines.append(f"{prom}_bucket{inf_labels} {series.count}")
            lines.append(
                f"{prom}_sum{_labels_text(series.labels)} {format_value(series.total)}"
            )
            lines.append(f"{prom}_count{_labels_text(series.labels)} {series.count}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------- #
# Minimal conformance parser (format tests + CI scrape validation)
# ---------------------------------------------------------------------- #


class ExpositionError(ValueError):
    """A scrape body violated the exposition format."""


_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>.*)\})?"
    r"\s+(?P<value>\S+)"
    r"(?:\s+(?P<timestamp>-?\d+))?$"
)
_LABEL_PAIR_RE = re.compile(
    r'\s*(?P<key>[a-zA-Z_][a-zA-Z0-9_]*)="(?P<value>(?:[^"\\]|\\.)*)"\s*(?:,|$)'
)


def _unescape_label_value(value: str) -> str:
    return (
        value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
    )


def _parse_labels(text: "str | None") -> tuple[tuple[str, str], ...]:
    if not text:
        return ()
    pairs: list[tuple[str, str]] = []
    position = 0
    while position < len(text):
        match = _LABEL_PAIR_RE.match(text, position)
        if match is None:
            raise ExpositionError(f"malformed label set: {{{text}}}")
        pairs.append((match.group("key"), _unescape_label_value(match.group("value"))))
        position = match.end()
    return tuple(pairs)


def _parse_value(text: str) -> float:
    if text == "NaN":
        return math.nan
    if text in ("+Inf", "Inf"):
        return math.inf
    if text == "-Inf":
        return -math.inf
    try:
        return float(text)
    except ValueError as exc:
        raise ExpositionError(f"unparseable sample value {text!r}") from exc


def parse_exposition(text: str) -> dict[str, dict]:
    """Parse (and conformance-check) an exposition body.

    Returns ``{family_name: {"type", "help", "samples"}}`` where samples is
    a list of ``(metric_name, labels_tuple, value)``. Raises
    :class:`ExpositionError` on: invalid metric/label names, samples
    without a preceding ``# TYPE``, duplicate series within a family,
    non-monotone histogram buckets, a missing ``+Inf`` bucket, or an
    ``+Inf`` bucket disagreeing with ``_count``.
    """
    families: dict[str, dict] = {}
    typed: dict[str, str] = {}

    def owner(sample_name: str) -> "str | None":
        if sample_name in typed:
            return sample_name
        for suffix in ("_bucket", "_sum", "_count"):
            if sample_name.endswith(suffix):
                base = sample_name[: -len(suffix)]
                if typed.get(base) == "histogram":
                    return base
        return None

    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip()
        if not line:
            continue
        if line.startswith("# HELP "):
            parts = line.split(" ", 3)
            if len(parts) < 3 or not _NAME_RE.match(parts[2]):
                raise ExpositionError(f"line {number}: malformed HELP line")
            families.setdefault(
                parts[2], {"type": None, "help": None, "samples": []}
            )["help"] = parts[3] if len(parts) > 3 else ""
            continue
        if line.startswith("# TYPE "):
            parts = line.split(" ")
            if len(parts) != 4 or not _NAME_RE.match(parts[2]):
                raise ExpositionError(f"line {number}: malformed TYPE line")
            name, kind = parts[2], parts[3]
            if kind not in ("counter", "gauge", "histogram", "summary", "untyped"):
                raise ExpositionError(f"line {number}: unknown metric type {kind!r}")
            if name in typed:
                raise ExpositionError(f"line {number}: duplicate TYPE for {name}")
            typed[name] = kind
            families.setdefault(name, {"type": None, "help": None, "samples": []})[
                "type"
            ] = kind
            continue
        if line.startswith("#"):
            continue  # comment
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ExpositionError(f"line {number}: unparseable sample: {line!r}")
        sample_name = match.group("name")
        base = owner(sample_name)
        if base is None:
            raise ExpositionError(
                f"line {number}: sample {sample_name!r} has no preceding # TYPE"
            )
        labels = _parse_labels(match.group("labels"))
        for key, _ in labels:
            if not _LABEL_RE.match(key):
                raise ExpositionError(f"line {number}: invalid label name {key!r}")
        value = _parse_value(match.group("value"))
        samples = families[base]["samples"]
        identity = (sample_name, labels)
        if any((n, tags) == identity for n, tags, _ in samples):
            raise ExpositionError(f"line {number}: duplicate series {identity}")
        samples.append((sample_name, labels, value))

    for name, entry in families.items():
        if entry["type"] != "histogram":
            continue
        _check_histogram(name, entry["samples"])
    return families


def _check_histogram(name: str, samples: list) -> None:
    """Bucket monotonicity and +Inf/_count agreement for one family."""
    by_series: dict[tuple, dict] = {}
    for sample_name, labels, value in samples:
        base_labels = tuple(pair for pair in labels if pair[0] != "le")
        entry = by_series.setdefault(
            base_labels, {"buckets": [], "count": None}
        )
        if sample_name == f"{name}_bucket":
            le = dict(labels).get("le")
            if le is None:
                raise ExpositionError(f"{name}: bucket sample without le label")
            entry["buckets"].append((_parse_value(le), value))
        elif sample_name == f"{name}_count":
            entry["count"] = value
    for labels, entry in by_series.items():
        buckets = sorted(entry["buckets"], key=lambda pair: pair[0])
        if not buckets or not math.isinf(buckets[-1][0]):
            raise ExpositionError(f"{name}{dict(labels)}: missing +Inf bucket")
        counts = [count for _, count in buckets]
        if any(a > b for a, b in zip(counts, counts[1:], strict=False)):
            raise ExpositionError(f"{name}{dict(labels)}: bucket counts not monotone")
        if entry["count"] is not None and buckets[-1][1] != entry["count"]:
            raise ExpositionError(
                f"{name}{dict(labels)}: +Inf bucket != _count "
                f"({buckets[-1][1]} vs {entry['count']})"
            )


def validate_exposition(text: str) -> int:
    """Conformance-check a scrape body; returns the number of samples."""
    families = parse_exposition(text)
    return sum(len(entry["samples"]) for entry in families.values())
