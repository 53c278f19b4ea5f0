"""Discrete-event simulation core.

A minimal, deterministic event loop: events are ordered in a heap;
callbacks schedule further events.  Determinism matters because the
emulation benches assert reproducible latency traces.

The heap holds plain ``(time, scheduled_at, sequence, event)`` tuples:
sequence numbers are unique, so comparisons resolve on the first three
float/int fields and never fall through to the event object.  That
keeps the hot ``heappush``/``heappop`` path free of dataclass rich
comparisons, which matters once the serving data plane pushes 10⁵–10⁶
events per run.

**Same-instant order.**  Events due at the same instant fire in the
order they were scheduled: by the virtual time they were scheduled at
(``scheduled_at``), then by schedule call.  :meth:`Simulator.schedule`
and :meth:`Simulator.schedule_at` stamp ``scheduled_at = now``, which is
plain schedule-call order.  :meth:`Simulator.schedule_as_of` stamps an
earlier-armed instant instead: an event chain that skips its own idle
steps (the serving dispatcher sleeping through empty windows) schedules
its next step at the instant the skipped chain would have armed it, so
the step keeps the place among same-instant events it would have had.
:meth:`Simulator.schedule_at` fires at exactly ``time`` (not
``now + (time - now)``, a different float for some pairs).

Cancelled events are purged lazily: :meth:`Event.cancel` notifies the
owning simulator, and once more than half the heap is dead the queue is
compacted in one filter + heapify pass.  Workloads that churn timers
(deadline guards, sampler reschedules) therefore keep the heap bounded
by the *live* event count instead of growing with every cancellation.
Because heap entries are totally ordered, compaction never changes the
pop order of the surviving events.

With ``recycle_events=True`` the simulator keeps a freelist of fired
:class:`Event` objects and reuses them for subsequent ``schedule``
calls, so a million-event run stops thrashing the allocator.  Only opt
in when no caller retains event handles past their firing (a stale
handle would alias the recycled slot's next occupant); the serving wave
engine qualifies, generic emulation code may not.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable

__all__ = ["Event", "Simulator"]


def _noop() -> None:  # pragma: no cover - placeholder for pooled slots
    raise RuntimeError("recycled event fired without a callback")


@dataclass(slots=True)
class Event:
    """One scheduled callback (the heap entry holding it sets its order)."""

    time: float
    sequence: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    #: owning simulator while the event sits in its heap; cleared on pop
    #: so a late cancel() cannot skew the dead-event counter
    _owner: "Simulator | None" = field(default=None, compare=False, repr=False)

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        if self._owner is not None:
            self._owner._note_cancelled()


class Simulator:
    """Event loop with virtual time."""

    def __init__(self, recycle_events: bool = False) -> None:
        self._queue: list[tuple[float, float, int, Event]] = []
        self._sequence = 0
        self._cancelled = 0
        self.now = 0.0
        self.events_processed = 0
        self.recycle_events = recycle_events
        self._freelist: list[Event] = []

    def schedule(self, delay: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError("delay must be >= 0")
        return self.schedule_as_of(self.now, self.now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> Event:
        """Schedule ``callback`` at exactly ``time`` (now, if ``time`` is past)."""
        return self.schedule_as_of(self.now, max(time, self.now), callback)

    def schedule_as_of(
        self, scheduled_at: float, time: float, callback: Callable[[], None]
    ) -> Event:
        """Schedule ``callback`` at ``time`` as if it had been scheduled at
        virtual time ``scheduled_at``.

        Among events due at ``time`` it fires after every event scheduled
        at an earlier virtual time and before every event scheduled at a
        later one; events stamped with the same ``scheduled_at`` keep
        schedule-call order.
        """
        sequence = self._sequence
        self._sequence += 1
        if self._freelist:
            event = self._freelist.pop()
            event.time = time
            event.sequence = sequence
            event.callback = callback
            event.cancelled = False
            event._owner = self
        else:
            event = Event(
                time=time, sequence=sequence, callback=callback, _owner=self
            )
        heapq.heappush(self._queue, (time, scheduled_at, sequence, event))
        return event

    def _note_cancelled(self) -> None:
        """A queued event died; compact once the heap is mostly dead."""
        self._cancelled += 1
        if self._cancelled * 2 > len(self._queue):
            self._queue = [
                entry for entry in self._queue if not entry[3].cancelled
            ]
            heapq.heapify(self._queue)
            self._cancelled = 0

    def _pop(self) -> Event:
        event = heapq.heappop(self._queue)[3]
        if event.cancelled:
            self._cancelled -= 1
        event._owner = None
        return event

    def _recycle(self, event: Event) -> None:
        event.callback = _noop
        self._freelist.append(event)

    def run_until(self, end_time: float) -> None:
        """Process events with ``time <= end_time`` in order.

        The virtual clock always advances to ``end_time``, even when
        the queue is empty (or drains early) — callers like the serving
        runtime rely on this to measure a fixed horizon regardless of
        how quiet the run was.  A past ``end_time`` leaves ``now``
        untouched.
        """
        recycle = self.recycle_events
        while self._queue and self._queue[0][0] <= end_time:
            event = self._pop()
            if event.cancelled:
                continue
            self.now = event.time
            event.callback()
            self.events_processed += 1
            if recycle:
                self._recycle(event)
        self.now = max(self.now, end_time)

    def run(self) -> None:
        """Run until the event queue drains."""
        recycle = self.recycle_events
        while self._queue:
            event = self._pop()
            if event.cancelled:
                continue
            self.now = event.time
            event.callback()
            self.events_processed += 1
            if recycle:
                self._recycle(event)

    @property
    def pending(self) -> int:
        """Live (non-cancelled) scheduled events, in O(1)."""
        return len(self._queue) - self._cancelled
