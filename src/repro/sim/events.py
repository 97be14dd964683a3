"""A small discrete-event simulation core.

The scheduler simulator (:mod:`repro.sim.scheduler_sim`) drives everything
through this module: a monotonically advancing :class:`SimClock` and a stable
priority :class:`EventQueue`.  Keeping the event core separate makes it easy
to unit-test the ordering guarantees (same-time events fire in insertion
order) independently of any scheduling policy.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.errors import SimulationError

__all__ = ["Event", "EventQueue", "SimClock"]


@dataclass(order=True)
class Event:
    """A single scheduled event.

    Events are ordered by ``(time, sequence)`` so that two events scheduled
    for the same simulated time fire in the order they were pushed.  The
    payload is excluded from ordering.
    """

    time: float
    sequence: int
    action: Callable[[], Any] = field(compare=False)
    tag: str = field(default="", compare=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        """Mark this event as cancelled; it will be skipped when popped."""
        self.cancelled = True


class SimClock:
    """Monotonic simulated clock measured in seconds.

    The clock refuses to move backwards -- any attempt to do so indicates a
    scheduling bug, so it raises :class:`SimulationError` rather than
    silently corrupting the timeline.
    """

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance_to(self, when: float) -> float:
        """Advance the clock to ``when`` and return the new time."""
        if when < self._now - 1e-15:
            raise SimulationError(
                f"simulated clock cannot move backwards: {when} < {self._now}"
            )
        self._now = max(self._now, float(when))
        return self._now

    def advance_by(self, delta: float) -> float:
        """Advance the clock by a non-negative ``delta`` seconds."""
        if delta < 0:
            raise SimulationError(f"negative clock delta: {delta}")
        self._now += float(delta)
        return self._now

    def reset(self, start: float = 0.0) -> None:
        """Reset the clock to ``start`` (used between independent runs)."""
        self._now = float(start)


class EventQueue:
    """A stable min-heap of :class:`Event` objects keyed by time.

    The queue owns a :class:`SimClock`; :meth:`run_until_empty` pops events in
    time order, advances the clock to each event's timestamp and invokes its
    action.  Actions may push further events.
    """

    def __init__(self, clock: Optional[SimClock] = None) -> None:
        self.clock = clock if clock is not None else SimClock()
        self._heap: list[Event] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return sum(1 for ev in self._heap if not ev.cancelled)

    def __bool__(self) -> bool:
        return len(self) > 0

    def push(self, time: float, action: Callable[[], Any], *, tag: str = "") -> Event:
        """Schedule ``action`` to run at simulated ``time``.

        Scheduling in the past (relative to the clock) is rejected because the
        caller is almost certainly computing durations incorrectly.
        """
        if time < self.clock.now - 1e-15:
            raise SimulationError(
                f"cannot schedule event at {time} before current time {self.clock.now}"
            )
        event = Event(time=float(time), sequence=next(self._counter), action=action, tag=tag)
        heapq.heappush(self._heap, event)
        return event

    def push_after(self, delay: float, action: Callable[[], Any], *, tag: str = "") -> Event:
        """Schedule ``action`` to run ``delay`` seconds from the current time."""
        if delay < 0:
            raise SimulationError(f"negative event delay: {delay}")
        return self.push(self.clock.now + delay, action, tag=tag)

    def pop(self) -> Optional[Event]:
        """Pop the next non-cancelled event without running it.

        Returns ``None`` when the queue is exhausted.  The clock is advanced
        to the popped event's time.
        """
        while self._heap:
            event = heapq.heappop(self._heap)
            if event.cancelled:
                continue
            self.clock.advance_to(event.time)
            return event
        return None

    def run_until_empty(self, *, max_events: int = 50_000_000) -> int:
        """Run events in order until none remain; return how many ran.

        ``max_events`` is a safety valve against accidental infinite event
        chains in a buggy policy implementation.
        """
        executed = 0
        while True:
            event = self.pop()
            if event is None:
                return executed
            event.action()
            executed += 1
            if executed > max_events:
                raise SimulationError(
                    f"event budget exceeded ({max_events}); runaway simulation?"
                )
