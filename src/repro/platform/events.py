"""Discrete-event simulation clock for latency modelling.

The latency-control section of the tutorial reasons about *when* answers
arrive, not just how many are needed. This module provides a minimal but
exact discrete-event kernel: a priority queue of timestamped events and a
monotonically advancing clock. The platform schedules worker arrivals and
task completions on it; latency metrics (makespan, per-round time, tail
percentiles) fall out of the answers the handler records.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.errors import PlatformError


@dataclass(frozen=True, order=True)
class Event:
    """A timestamped simulation event.

    Ordering is (time, sequence) so simultaneous events preserve scheduling
    order deterministically.
    """

    time: float
    sequence: int
    kind: str = field(compare=False)
    payload: dict[str, Any] = field(compare=False, default_factory=dict)


class EventSimulator:
    """A classic event-driven simulation loop.

    Args:
        tracer: When given (and enabled), every processed event is emitted
            as a zero-duration span annotation (``event.<kind>``) so a
            trace can reconstruct the discrete-event timeline.

    Processed events are counted (:attr:`events_processed`), not kept.
    """

    def __init__(self, tracer=None) -> None:
        self._queue: list[Event] = []
        self._sequence = itertools.count()
        self.now = 0.0
        self.tracer = tracer
        self.events_processed = 0

    def __len__(self) -> int:
        return len(self._queue)

    def schedule(self, delay: float, kind: str, **payload: Any) -> Event:
        """Schedule an event *delay* seconds in the future."""
        if delay < 0:
            raise PlatformError(f"cannot schedule into the past (delay={delay})")
        event = Event(self.now + delay, next(self._sequence), kind, payload)
        heapq.heappush(self._queue, event)
        return event

    def schedule_at(self, time: float, kind: str, **payload: Any) -> Event:
        """Schedule an event at an absolute time >= now."""
        if time < self.now:
            raise PlatformError(f"cannot schedule at {time} (now={self.now})")
        event = Event(time, next(self._sequence), kind, payload)
        heapq.heappush(self._queue, event)
        return event

    def step(self) -> Event | None:
        """Pop and return the next event, advancing the clock."""
        if not self._queue:
            return None
        event = heapq.heappop(self._queue)
        self.now = event.time
        self.events_processed += 1
        if self.tracer is not None and self.tracer.enabled:
            self.tracer.annotate(f"event.{event.kind}", sim_time=event.time, **event.payload)
        return event

    def run(
        self,
        handler: Callable[[Event, "EventSimulator"], None],
        until: float | None = None,
        max_events: int = 1_000_000,
    ) -> float:
        """Drain the queue through *handler*; returns the final clock.

        *handler* may schedule further events. Stops when the queue empties,
        the clock passes *until*, or *max_events* have been processed (a
        runaway guard, raising PlatformError).
        """
        processed = 0
        while self._queue:
            if until is not None and self._queue[0].time > until:
                self.now = until
                break
            event = self.step()
            assert event is not None
            handler(event, self)
            processed += 1
            if processed >= max_events:
                raise PlatformError(f"event budget exhausted after {max_events} events")
        return self.now

    def drain(self, until: float | None = None) -> Iterator[Event]:
        """Yield events in time order without a callback handler."""
        while self._queue:
            if until is not None and self._queue[0].time > until:
                self.now = until
                return
            event = self.step()
            assert event is not None
            yield event
