"""Shared instrumentation helpers for crowd operators.

Every operator wraps its run in :class:`operator_span`, which opens an
``operator.<name>`` span on the platform's tracer and, on exit, stamps
the span with the cost and answer deltas the operator incurred and folds
the same deltas into the ``operator.runs`` / ``.cost`` / ``.answers`` /
``.items`` counters and the ``operator.wall`` histogram on the platform's
registry, each labeled ``{operator=<name>}``. With both tracer and metrics
disabled the context manager degenerates to two attribute checks — the
null path the overhead benchmark guards.
"""

from __future__ import annotations

import time
from typing import Any

from repro.obs.tracer import NULL_SPAN, Span


class operator_span:
    """Context manager instrumenting one operator execution.

    Args:
        platform: Supplies ``tracer``, ``metrics``, and ``stats``.
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
        self._active = self.platform.tracer.enabled or self.platform.metrics.enabled
        if not self._active:
            return NULL_SPAN  # type: ignore[return-value]
        stats = self.platform.stats
        self._cost0 = stats.cost_spent
        self._answers0 = stats.answers_collected
        self._wall0 = time.perf_counter()
        self.span = self.platform.tracer.span(f"operator.{self.operator}", **self.tags)
        return self.span

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        if not self._active:
            return
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
