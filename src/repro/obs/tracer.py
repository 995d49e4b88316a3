"""Span-based tracing for the crowd pipeline.

A :class:`Tracer` records a tree of :class:`Span` objects — engine run →
statements → operators → batches → retries / EM iterations — each
carrying wall-clock timestamps, optional *simulated*-clock timestamps,
and free-form tags.
Finished spans stream to a :class:`~repro.obs.sinks.TraceSink` as JSON
dicts (see :data:`SPAN_FIELDS` for the schema).

Two kinds of record exist:

* ``span`` — has duration; opened/closed around a unit of work.
* ``annotation`` — zero-duration point event attached to the current span
  (a retry, a discrete simulation event, one EM iteration).

Tracing off is the default: :data:`NULL_TRACER` satisfies the same
interface with constant no-ops, so instrumented code pays one method call
and an attribute check on the hot path.

Each thread nests its spans on its own stack, so concurrent sessions on
one tracer keep separate trees. A span is closed on the thread that
opened it. Work handed to another thread (a service session's crowd run,
which the dispatcher thread executes) runs between :meth:`Tracer.adopt`
and :meth:`Tracer.release` of the span current where it was handed off,
so the spans it opens nest under that span.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Any

from repro.obs.sinks import MemorySink, TraceSink

SPAN_FIELDS = (
    "span_id",
    "parent_id",
    "name",
    "kind",
    "start",
    "end",
    "duration",
    "sim_start",
    "sim_end",
    "tags",
)


class Span:
    """One traced unit of work (or a zero-duration annotation)."""

    __slots__ = (
        "name",
        "span_id",
        "parent_id",
        "kind",
        "tags",
        "start_wall",
        "end_wall",
        "sim_start",
        "sim_end",
        "_tracer",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        span_id: int,
        parent_id: int | None,
        kind: str = "span",
        sim_start: float | None = None,
        tags: dict[str, Any] | None = None,
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.kind = kind
        self.tags = tags or {}
        self.start_wall = time.perf_counter()
        self.end_wall: float | None = None
        self.sim_start = sim_start
        self.sim_end: float | None = None

    def set_tag(self, key: str, value: Any) -> None:
        """Attach (or overwrite) one tag on this span."""
        self.tags[key] = value

    @property
    def duration(self) -> float:
        """Wall-clock seconds; 0 while the span is still open."""
        if self.end_wall is None:
            return 0.0
        return self.end_wall - self.start_wall

    def to_dict(self) -> dict[str, Any]:
        """The JSONL record for this span (schema: :data:`SPAN_FIELDS`)."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "kind": self.kind,
            "start": self.start_wall,
            "end": self.end_wall if self.end_wall is not None else self.start_wall,
            "duration": self.duration,
            "sim_start": self.sim_start,
            "sim_end": self.sim_end,
            "tags": self.tags,
        }

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self._tracer.end_span(self)


class _NullSpan:
    """Shared do-nothing span: the disabled-tracing fast path."""

    __slots__ = ()
    tags: dict[str, Any] = {}
    sim_start = None
    sim_end = None
    duration = 0.0

    def set_tag(self, key: str, value: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        pass

    def __setattr__(self, key: str, value: Any) -> None:
        pass  # instrumentation may stamp sim_end etc.; silently drop it


NULL_SPAN = _NullSpan()


class _Stacks(threading.local):
    """The open spans of each thread, innermost last."""

    def __init__(self) -> None:
        self.stack: list[Span] = []


class Tracer:
    """Hierarchical span recorder.

    Args:
        sink: Destination for finished spans (default: in-memory).

    Span ids are assigned from a per-tracer counter starting at 1, so two
    runs with identical control flow produce identical trees (timestamps
    aside) — the determinism the trace tests pin down. Nesting is per
    thread (see the module docstring).
    """

    enabled = True

    def __init__(self, sink: TraceSink | None = None) -> None:
        self.sink = sink if sink is not None else MemorySink()
        self._stacks = _Stacks()
        self._ids = itertools.count(1)
        self._closed = False

    # -------------------------------------------------------------- #
    # Span lifecycle
    # -------------------------------------------------------------- #

    @property
    def current(self) -> Span | None:
        """The calling thread's innermost open span, if any."""
        stack = self._stacks.stack
        return stack[-1] if stack else None

    def span(self, name: str, sim_start: float | None = None, **tags: Any) -> Span:
        """Open a child span of the current span; use as a context manager."""
        stack = self._stacks.stack
        span = Span(
            self,
            name,
            span_id=next(self._ids),
            parent_id=stack[-1].span_id if stack else None,
            sim_start=sim_start,
            tags=tags,
        )
        stack.append(span)
        return span

    def end_span(self, span: Span) -> None:
        """Close *span* (and any forgotten children still open inside it)."""
        stack = self._stacks.stack
        if span not in stack:
            return  # already closed (idempotent)
        while stack:
            top = stack.pop()
            top.end_wall = time.perf_counter()
            self.sink.emit(top.to_dict())
            if top is span:
                return

    def adopt(self, span: Span) -> None:
        """Make *span*, open on another thread, this thread's current span.

        Spans this thread opens until :meth:`release` become its children.
        The adopted span stays its own thread's to close.
        """
        self._stacks.stack.append(span)

    def release(self, span: Span) -> None:
        """Close what this thread left open above an adopted *span*, then
        drop *span* from this thread's stack without closing it."""
        stack = self._stacks.stack
        while stack:
            top = stack.pop()
            if top is span:
                return
            top.end_wall = time.perf_counter()
            self.sink.emit(top.to_dict())

    def annotate(self, name: str, sim_time: float | None = None, **tags: Any) -> None:
        """Record a zero-duration point event under the current span."""
        stack = self._stacks.stack
        span = Span(
            self,
            name,
            span_id=next(self._ids),
            parent_id=stack[-1].span_id if stack else None,
            kind="annotation",
            sim_start=sim_time,
            tags=tags,
        )
        span.end_wall = span.start_wall
        span.sim_end = sim_time
        self.sink.emit(span.to_dict())

    def close(self) -> None:
        """End the calling thread's open spans (outermost last) and close
        the sink."""
        if self._closed:
            return
        stack = self._stacks.stack
        while stack:
            self.end_span(stack[-1])
        self.sink.close()
        self._closed = True


class NullTracer(Tracer):
    """Tracing disabled: every operation is a constant no-op."""

    enabled = False
    #: A plain attribute, so handing work to another thread reads one.
    current = None

    def __init__(self) -> None:  # no sink, no stack
        pass

    def span(self, name: str, sim_start: float | None = None, **tags: Any) -> Span:
        return NULL_SPAN  # type: ignore[return-value]

    def end_span(self, span: Span) -> None:
        pass

    def adopt(self, span: Span) -> None:
        pass

    def release(self, span: Span) -> None:
        pass

    def annotate(self, name: str, sim_time: float | None = None, **tags: Any) -> None:
        pass

    def close(self) -> None:
        pass


NULL_TRACER = NullTracer()
