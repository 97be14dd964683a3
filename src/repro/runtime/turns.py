"""Interpreter turns: a service's inline requests run one at a time.

Left to the GIL, inline requests interleave at its 5 ms switch interval.
Here one *turn* is held at a time, given up only at a loop boundary to a
waiter expected to finish sooner, as HPX threads suspend at a dependency
instead of being preempted.  Keys: the tenant's moving average of request
CPU (``time.thread_time``, 0 without history) less what the holder used, or
what it used once past that, over the tenant's weight; ties by arrival.
Loops the gate has not measured short run outside the turn.  Both bounds
are ``grain.GRAIN_THRESHOLD_SECONDS`` of wall time: a waiter that waited
that long gets the next release (none starves), and one whose holder passed
no checkpoint that long runs its loop without the turn (a *bypass*: the
holder is blocked outside loops, and waiting could deadlock).
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from typing import Hashable, Mapping, Optional

from repro.core import grain

__all__ = ["Turn", "TurnQueue", "current"]

# OUT (not started, left or done), WAITING, HELD, SUSPENDED (outside the
# turn: a loop of unknown length, or bypassed), HANDED to the caller
_OUT, _WAITING, _HELD, _SUSPENDED, _HANDED = range(5)

#: weight of one request's CPU in its tenant's moving average
_SMOOTHING = 0.25

class _Current(threading.local):
    turn: Optional["Turn"] = None


#: ``current.turn``: the turn of the request this thread runs, if any
current = _Current()


class Turn:
    """One request's claim on the interpreter; ``caller_waits`` when a thread
    blocks on its result (``submit_sync``)."""

    __slots__ = ("queue", "tenant", "caller_waits", "state", "cpu_start", "arrival", "since")

    def __init__(self, queue: "TurnQueue", tenant: Hashable, *, caller_waits: bool = False) -> None:
        self.queue, self.tenant, self.caller_waits = queue, tenant, caller_waits
        self.state, self.cpu_start, self.arrival, self.since = _OUT, 0.0, 0, 0.0

    def remaining(self) -> float:
        """Expected CPU seconds left; what was used, once past the expectation."""
        expected = self.queue.expected.get(self.tenant, 0.0)
        used = time.thread_time() - self.cpu_start
        return expected - used if used < expected else used

    def checkpoint(self) -> None:
        """A loop boundary: yield to a waiter expected to finish sooner."""
        if self.state == _HELD:
            self.queue.ticks += 1
            if self.queue.waiters:
                self.queue._yield(self)

    def enter(self, measured_short: bool) -> None:
        """Before an inline loop: hold the turn around one the gate measured
        short, else run it outside the turn."""
        if measured_short and self.state == _SUSPENDED:
            self.queue._take(self, self.remaining())
        elif not measured_short and self.state == _HELD:
            self.queue._step_out(self, _SUSPENDED)

    def leave(self) -> None:
        """Release the turn for good (the request's loops moved to an engine)."""
        self.queue._step_out(self, _OUT)


class TurnQueue:
    """One service's turns; ``weights`` is the live tenant -> weight mapping."""

    def __init__(self, weights: Mapping[Hashable, int], *, default_weight: int = 1) -> None:
        self._weights, self._default_weight = weights, default_weight
        self._cond = threading.Condition()
        self._holder: Optional[Turn] = None
        #: heap of ``(key, arrival, turn)``; arrivals are unique
        self.waiters: list[tuple[float, int, Turn]] = []
        self._arrivals = itertools.count()
        #: holders' checkpoints, and ``(holder, ticks)`` as last seen, since when
        self.ticks = 0
        self._seen: tuple[Optional[Turn], int, float] = (None, 0, 0.0)
        #: tenant -> moving average of its requests' CPU seconds
        self.expected: dict[Hashable, float] = {}
        self._counts = dict.fromkeys(("grants", "yields", "suspends", "bypasses", "hand_backs"), 0)

    def start(self, turn: Turn) -> None:
        """The request starts on this thread: in its turn, once granted, if
        its tenant has history; else outside it."""
        turn.arrival, turn.cpu_start = next(self._arrivals), time.thread_time()
        turn.state = _SUSPENDED
        if turn.tenant in self.expected:  # nothing used yet: ties go by arrival
            self._take(turn, self.expected[turn.tenant])

    def finish(self, turn: Turn) -> None:
        """The request is done: fold its CPU into the tenant's expectation,
        then hand the turn to the waiting caller or release it."""
        cpu = time.thread_time() - turn.cpu_start
        with self._cond:
            previous = self.expected.get(turn.tenant, cpu)
            self.expected[turn.tenant] = previous + _SMOOTHING * (cpu - previous)
            if self._holder is turn and turn.caller_waits:
                turn.state = _HANDED
                self._counts["hand_backs"] += 1
                return
            if self._holder is turn:
                self._release()
            turn.state = _OUT

    def drop_caller(self, turn: Turn) -> None:
        """The caller holds the result, or timed out: release a handed turn."""
        with self._cond:
            turn.caller_waits = False
            if turn.state == _HANDED:
                self._release()
                turn.state = _OUT

    def stats(self) -> dict[str, int]:
        """Grants, yields, suspensions, stall-valve bypasses and hand-backs."""
        with self._cond:
            return dict(self._counts)

    def _key(self, turn: Turn, remaining: float) -> float:
        return remaining / max(1, int(self._weights.get(turn.tenant, self._default_weight)))

    def _take(self, turn: Turn, remaining: float) -> None:
        key = self._key(turn, remaining)
        with self._cond:
            if self._holder is None:
                self._grant(turn)
            else:
                self._wait(turn, key)

    def _yield(self, turn: Turn) -> None:
        key = self._key(turn, turn.remaining())
        with self._cond:
            if self._holder is turn and self.waiters and self.waiters[0][0] < key:
                self._counts["yields"] += 1
                self._release()
                self._wait(turn, key)

    def _step_out(self, turn: Turn, state: int) -> None:
        with self._cond:
            if self._holder is turn:
                self._counts["suspends"] += state == _SUSPENDED
                self._release()
            turn.state = state

    # -- under the lock ---------------------------------------------------------------
    def _grant(self, turn: Turn) -> None:
        turn.state, self._holder = _HELD, turn
        self._counts["grants"] += 1
        self._cond.notify_all()

    def _release(self) -> None:
        self._holder = None
        if self.waiters:  # the smallest key, unless a waiter waited out the bound
            entry = min(self.waiters, key=lambda waiter: waiter[2].since)
            if time.monotonic() - entry[2].since < grain.GRAIN_THRESHOLD_SECONDS:
                entry = self.waiters[0]
            self.waiters.remove(entry)
            heapq.heapify(self.waiters)
            self._grant(entry[2])

    def _wait(self, turn: Turn, key: float) -> None:
        entry = (key, turn.arrival, turn)
        turn.state, turn.since = _WAITING, time.monotonic()
        heapq.heappush(self.waiters, entry)
        while turn.state == _WAITING:
            now = time.monotonic()
            if self._seen[:2] != (self._holder, self.ticks):  # the holder moved on
                self._seen = (self._holder, self.ticks, now)
            left = self._seen[2] + grain.GRAIN_THRESHOLD_SECONDS - now
            if left > 0:
                self._cond.wait(left)
            else:  # the holder is blocked outside loops: go ahead without it
                self.waiters.remove(entry)
                heapq.heapify(self.waiters)
                turn.state = _SUSPENDED
                self._counts["bypasses"] += 1
