"""Shared instrumentation helpers for crowd operators and CrowdSQL statements.

Every operator wraps its run in :class:`operator_span`, which opens an
``operator.<name>`` span on the platform's tracer and, on exit, stamps
the span with the cost and answer deltas the operator incurred and folds
the same deltas into the ``operator.runs`` / ``.cost`` / ``.answers`` /
``.items`` counters and the ``operator.wall`` histogram on the platform's
registry, each labeled ``{operator=<name>}``. An operator that runs
inside another one (``hybrid_sort`` calling ``rating_sort``) books
nothing: the outermost span already carries its spend. With both tracer
and metrics disabled the context manager degenerates to two attribute
checks — the null path the overhead benchmark guards.

:class:`statement_span` records one CrowdSQL statement as a ``statement``
span: its label, rows, failure, simulated clock and the
:data:`STATEMENT_COUNTERS` deltas. ``trace-report`` builds the
per-statement report from these spans and the operator spans under them.
"""

from __future__ import annotations

import time
from typing import Any

from repro.obs.tracer import NULL_SPAN, Span

#: Statement-span tag -> the :class:`~repro.platform.platform.PlatformStats`
#: counter whose delta over the statement it carries.
STATEMENT_COUNTERS = {
    "cost": "cost_spent",
    "answers": "answers_collected",
    "published": "tasks_published",
    "reused": "cache_answers_reused",
    "cache_hits": "cache_hits",
    "cache_misses": "cache_misses",
    "hedges": "hedges_launched",
    "hedges_won": "hedges_won",
    "cancelled": "tasks_cancelled",
    "cancel_refunded": "cancel_cost_refunded",
}


class operator_span:
    """Context manager instrumenting one operator execution.

    Args:
        platform: Supplies ``tracer``, ``metrics``, ``stats`` and
            ``operator_open``, the flag that marks an operator span open
            on it.
        operator: Short operator name (``filter``, ``join``, ...).
        **tags: Extra tags stamped onto the span at open time.
    """

    __slots__ = (
        "platform",
        "operator",
        "tags",
        "span",
        "_active",
        "_cost0",
        "_answers0",
        "_wall0",
    )

    def __init__(self, platform: Any, operator: str, **tags: Any) -> None:
        self.platform = platform
        self.operator = operator
        self.tags = tags
        self.span: Span = NULL_SPAN  # type: ignore[assignment]
        self._active = False

    def __enter__(self) -> Span:
        platform = self.platform
        self._active = (
            platform.tracer.enabled or platform.metrics.enabled
        ) and not platform.operator_open
        if not self._active:
            return NULL_SPAN  # type: ignore[return-value]
        platform.operator_open = True
        stats = platform.stats
        self._cost0 = stats.cost_spent
        self._answers0 = stats.answers_collected
        self._wall0 = time.perf_counter()
        self.span = platform.tracer.span(f"operator.{self.operator}", **self.tags)
        return self.span

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        if not self._active:
            return
        self.platform.operator_open = False
        stats = self.platform.stats
        cost = stats.cost_spent - self._cost0
        answers = stats.answers_collected - self._answers0
        self.span.set_tag("cost", cost)
        self.span.set_tag("answers", answers)
        self.span.__exit__(exc_type, exc, tb)
        metrics = self.platform.metrics
        wall = time.perf_counter() - self._wall0
        labels = {"operator": self.operator}
        metrics.inc("operator.runs", labels=labels)
        metrics.inc("operator.cost", cost, labels=labels)
        metrics.inc("operator.answers", answers, labels=labels)
        items = self.tags.get("items")
        if items is not None:
            metrics.inc("operator.items", items, labels=labels)
        metrics.observe("operator.wall", wall, labels=labels)


class statement_span:
    """Context manager recording one CrowdSQL statement as a ``statement`` span.

    The span is tagged with the statement's *index* and *label*, whether
    it ``failed``, and the :data:`STATEMENT_COUNTERS` deltas; its
    ``sim_start``/``sim_end`` read the scheduler clock. The caller adds
    the ``rows`` tag. With tracing off (or no platform) it records
    nothing and reads no counter.

    Args:
        platform: Supplies ``tracer``, ``stats`` and ``scheduler``; None
            for a session without a crowd.
        index: Position of the statement in its script.
        label: Short statement label (verb and table).
    """

    __slots__ = ("platform", "index", "label", "span", "_counters0")

    def __init__(self, platform: Any, index: int, label: str) -> None:
        self.platform = platform
        self.index = index
        self.label = label
        self.span: Span = NULL_SPAN  # type: ignore[assignment]

    def __enter__(self) -> Span:
        platform = self.platform
        if platform is None or not platform.tracer.enabled:
            return self.span
        stats = platform.stats
        self._counters0 = {
            tag: getattr(stats, attr) for tag, attr in STATEMENT_COUNTERS.items()
        }
        self.span = platform.tracer.span(
            "statement",
            sim_start=platform.scheduler.simulated_clock,
            index=self.index,
            statement=self.label,
        )
        return self.span

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        span = self.span
        if span is NULL_SPAN:
            return
        stats = self.platform.stats
        for tag, attr in STATEMENT_COUNTERS.items():
            span.set_tag(tag, getattr(stats, attr) - self._counters0[tag])
        span.set_tag("failed", exc_type is not None)
        span.sim_end = self.platform.scheduler.simulated_clock
        span.__exit__(exc_type, exc, tb)
