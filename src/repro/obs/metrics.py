"""Metrics primitives: counters, gauges, and percentile histograms.

:class:`MetricsRegistry` is the single home for every quantitative signal
in a run. The platform's :class:`~repro.platform.platform.PlatformStats`
counters are *backed by* a registry (one source of truth), while richer
telemetry — assignment-latency histograms, retries per task, EM
convergence deltas, per-operator cost — is recorded through the guarded
convenience methods (:meth:`MetricsRegistry.inc`,
:meth:`MetricsRegistry.observe`), which are no-ops when the registry is
disabled so the hot path stays within noise of an uninstrumented run.

Series may carry **labels** (Prometheus-style dimensions): the same family
name with different label sets yields independent series, e.g.
``registry.inc("operator.runs", labels={"operator": "filter"})``. Unlabeled
calls are untouched — they remain the single-series fast path every
existing call site uses. Histograms additionally carry fixed bucket
boundaries (:data:`DEFAULT_BUCKETS` unless overridden at first creation),
from which :meth:`Histogram.bucket_counts` derives the cumulative
per-bucket counts the Prometheus exposition format
(:mod:`repro.obs.prom`) serves as ``_bucket`` series.
"""

from __future__ import annotations

import math
import threading
from bisect import bisect_right
from collections.abc import Iterable, Mapping
from typing import Any

#: Default histogram bucket upper bounds (seconds-flavoured, covering both
#: sub-second wall timings and multi-minute simulated makespans). Chosen
#: once and kept fixed so scrapes of a live run are comparable over time.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 30.0, 60.0, 120.0, 300.0,
)

LabelItems = tuple[tuple[str, str], ...]


def normalize_labels(labels: "Mapping[str, Any] | None") -> LabelItems:
    """Canonical sorted ``((key, value), ...)`` label tuple (values as str)."""
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def series_key(name: str, labels: LabelItems = ()) -> str:
    """Registry key for one series: ``name`` or ``name{k="v",...}``."""
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically written scalar (ints stay ints, floats stay floats)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        self.name = name
        self.labels = labels
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        """Add *amount* (default 1) to the counter."""
        self.value += amount


class Gauge:
    """A last-write-wins scalar."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: LabelItems = ()) -> None:
        self.name = name
        self.labels = labels
        self.value: float = 0.0

    def set(self, value: float) -> None:
        """Overwrite the gauge with *value*."""
        self.value = float(value)


class Histogram:
    """Stores raw observations; percentiles by linear interpolation.

    Matches ``numpy.percentile``'s default (linear) method so results are
    directly comparable with the benchmark analysis code. Bucket boundaries
    are fixed at creation (:data:`DEFAULT_BUCKETS` unless overridden);
    cumulative bucket counts are derived lazily from the raw samples, so
    the per-observation hot path stays a single ``list.append``.
    """

    __slots__ = ("name", "labels", "buckets", "values", "_sorted")

    def __init__(
        self,
        name: str,
        labels: LabelItems = (),
        buckets: "tuple[float, ...] | None" = None,
    ) -> None:
        self.name = name
        self.labels = labels
        self.buckets = tuple(sorted(buckets)) if buckets is not None else DEFAULT_BUCKETS
        self.values: list[float] = []
        self._sorted: list[float] | None = None

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.values.append(float(value))
        self._sorted = None

    def observe_many(self, values: "Iterable[float]") -> None:
        """Record samples in order, as one :meth:`observe` call each would."""
        self.values.extend(map(float, values))
        self._sorted = None

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def total(self) -> float:
        return sum(self.values)

    @property
    def mean(self) -> float:
        return self.total / len(self.values) if self.values else 0.0

    def _ranked(self) -> list[float]:
        if self._sorted is None:
            self._sorted = sorted(self.values)
        return self._sorted

    def bucket_counts(self, bounds: "tuple[float, ...] | None" = None) -> list[int]:
        """Cumulative sample counts per upper bound (``value <= bound``).

        The implicit ``+Inf`` bucket is :attr:`count` and is not included.
        """
        ranked = self._ranked()
        return [bisect_right(ranked, bound) for bound in (bounds or self.buckets)]

    def percentile(self, q: float) -> float:
        """The *q*-th percentile (0-100), linearly interpolated."""
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if not self.values:
            return 0.0
        ranked = self._ranked()
        position = (len(ranked) - 1) * q / 100.0
        low = math.floor(position)
        high = math.ceil(position)
        if low == high:
            return ranked[low]
        weight = position - low
        return ranked[low] * (1.0 - weight) + ranked[high] * weight

    @property
    def p50(self) -> float:
        return self.percentile(50.0)

    @property
    def p95(self) -> float:
        return self.percentile(95.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)


class MetricsRegistry:
    """Create-on-first-use registry of counters, gauges, and histograms.

    Args:
        enabled: Gates the convenience recorders (:meth:`inc`,
            :meth:`observe`, :meth:`set_gauge`). Direct handles from
            :meth:`counter` / :meth:`gauge` / :meth:`histogram` always
            work — that is how :class:`PlatformStats` keeps its totals here
            even when extra telemetry is off.

    Series are stored keyed by :func:`series_key`: the bare family name for
    unlabeled series (the historical behaviour, so every existing lookup
    like ``registry.counters["platform.cost_spent"]`` still works), and
    ``name{k="v"}`` for labeled ones.

    Thread safety: series *creation* (the first use of a new name/label
    combination) and :meth:`series_snapshot` share a lock, so a scraper
    iterating the registry while another thread mints new labeled series
    can never hit ``RuntimeError: dictionary changed size during
    iteration``. Reads and writes of existing series stay lock-free — a
    scrape may observe a half-advanced *set* of values, never a torn
    individual value or a torn dict.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}
        self._lock = threading.Lock()

    # -------------------------------------------------------------- #
    # Instrument handles (always live)
    # -------------------------------------------------------------- #

    def counter(self, name: str, labels: "Mapping[str, Any] | None" = None) -> Counter:
        """The counter registered under *name* (+ *labels*), created on first use."""
        if labels is None:
            key, items = name, ()
        else:
            items = normalize_labels(labels)
            key = series_key(name, items)
        found = self.counters.get(key)
        if found is None:
            with self._lock:
                found = self.counters.get(key)
                if found is None:
                    found = self.counters[key] = Counter(name, items)
        return found

    def gauge(self, name: str, labels: "Mapping[str, Any] | None" = None) -> Gauge:
        """The gauge registered under *name* (+ *labels*), created on first use."""
        if labels is None:
            key, items = name, ()
        else:
            items = normalize_labels(labels)
            key = series_key(name, items)
        found = self.gauges.get(key)
        if found is None:
            with self._lock:
                found = self.gauges.get(key)
                if found is None:
                    found = self.gauges[key] = Gauge(name, items)
        return found

    def histogram(
        self,
        name: str,
        labels: "Mapping[str, Any] | None" = None,
        buckets: "tuple[float, ...] | None" = None,
    ) -> Histogram:
        """The histogram registered under *name* (+ *labels*), created on first use.

        *buckets* fixes the boundary set at creation; it is ignored for an
        already-registered series (boundaries are immutable once chosen).
        """
        if labels is None:
            key, items = name, ()
        else:
            items = normalize_labels(labels)
            key = series_key(name, items)
        found = self.histograms.get(key)
        if found is None:
            with self._lock:
                found = self.histograms.get(key)
                if found is None:
                    found = self.histograms[key] = Histogram(
                        name, items, buckets=buckets
                    )
        return found

    # -------------------------------------------------------------- #
    # Guarded recorders (no-ops when disabled)
    # -------------------------------------------------------------- #

    def inc(
        self,
        name: str,
        amount: float = 1,
        labels: "Mapping[str, Any] | None" = None,
    ) -> None:
        """Increment counter *name* when the registry is enabled."""
        if self.enabled:
            self.counter(name, labels).inc(amount)

    def observe(
        self,
        name: str,
        value: float,
        labels: "Mapping[str, Any] | None" = None,
    ) -> None:
        """Record a histogram sample when the registry is enabled."""
        if self.enabled:
            self.histogram(name, labels).observe(value)

    def set_gauge(
        self,
        name: str,
        value: float,
        labels: "Mapping[str, Any] | None" = None,
    ) -> None:
        """Set gauge *name* when the registry is enabled."""
        if self.enabled:
            self.gauge(name, labels).set(value)

    def add(self, other: "MetricsRegistry") -> None:
        """Fold *other*'s series into this registry.

        Counters add, histograms take every sample, gauges take *other*'s
        value. Works whether or not either registry is enabled, like the
        direct handles.
        """
        counters, gauges, histograms = other.series_snapshot()
        for counter in counters.values():
            self.counter(counter.name, dict(counter.labels)).inc(counter.value)
        for gauge in gauges.values():
            self.gauge(gauge.name, dict(gauge.labels)).set(gauge.value)
        for hist in histograms.values():
            target = self.histogram(hist.name, dict(hist.labels), buckets=hist.buckets)
            target.observe_many(hist.values)

    # -------------------------------------------------------------- #
    # Export
    # -------------------------------------------------------------- #

    def series_snapshot(
        self,
    ) -> "tuple[dict[str, Counter], dict[str, Gauge], dict[str, Histogram]]":
        """Point-in-time shallow copies of the three series dicts.

        Taken under the creation lock, so every exporter iterating the
        result is immune to concurrent first-use series creation (the
        ``dictionary changed size during iteration`` race). The series
        objects themselves are shared, not copied — values keep advancing
        after the snapshot, which is fine for a scrape.
        """
        with self._lock:
            return dict(self.counters), dict(self.gauges), dict(self.histograms)

    def snapshot(self) -> dict[str, Any]:
        """All current values as plain data (counters, gauges, histograms).

        Keys are series keys (labeled series render as ``name{k="v"}``).
        Histogram entries carry cumulative ``buckets`` counts keyed by the
        upper bound, plus ``sum`` — the pieces the Prometheus exposition
        is assembled from.
        """
        counters, gauges, histograms = self.series_snapshot()
        return {
            "counters": {n: c.value for n, c in sorted(counters.items())},
            "gauges": {n: g.value for n, g in sorted(gauges.items())},
            "histograms": {
                n: {
                    "count": h.count,
                    "sum": h.total,
                    "mean": h.mean,
                    "p50": h.p50,
                    "p95": h.p95,
                    "p99": h.p99,
                    "buckets": dict(
                        zip(map(str, h.buckets), h.bucket_counts(), strict=True)
                    ),
                }
                for n, h in sorted(histograms.items())
            },
        }

    def report(self) -> str:
        """Human-readable run report: counters then histogram percentiles."""
        counters, gauges, histograms = self.series_snapshot()
        lines = ["== metrics =="]
        for name, counter in sorted(counters.items()):
            value = counter.value
            rendered = f"{value:.4f}" if isinstance(value, float) else str(value)
            lines.append(f"  {name} = {rendered}")
        for name, gauge in sorted(gauges.items()):
            lines.append(f"  {name} = {gauge.value:.4f}")
        if histograms:
            lines.append("  -- histograms (count / mean / p50 / p95 / p99) --")
            for name, hist in sorted(histograms.items()):
                lines.append(
                    f"  {name}: {hist.count} / {hist.mean:.4f} / "
                    f"{hist.p50:.4f} / {hist.p95:.4f} / {hist.p99:.4f}"
                )
        return "\n".join(lines)
