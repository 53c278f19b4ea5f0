"""Discrete-event simulation core.

A minimal, deterministic event loop: events are ordered in a heap;
callbacks schedule further events.  Determinism matters because the
emulation benches assert reproducible latency traces.

The heap holds plain ``(time, scheduled_at, sequence, callback)``
tuples: sequence numbers are unique, so comparisons resolve on the
first three float/int fields and never reach the callback.  That keeps
the hot ``heappush``/``heappop`` path free of rich comparisons, which
matters once the serving data plane pushes 10⁵–10⁶ events per run.
Scheduling returns no handle: nothing cancels an event once scheduled.

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
"""

from __future__ import annotations

import heapq
from typing import Callable

__all__ = ["Simulator"]


class Simulator:
    """Event loop with virtual time."""

    def __init__(self) -> None:
        self._queue: list[tuple[float, float, int, Callable[[], None]]] = []
        self._sequence = 0
        self.now = 0.0
        self.events_processed = 0

    def schedule(self, delay: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if not delay >= 0:
            raise ValueError("delay must be >= 0")
        self.schedule_as_of(self.now, self.now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> None:
        """Schedule ``callback`` at exactly ``time`` (now, if ``time`` is past)."""
        self.schedule_as_of(self.now, max(time, self.now), callback)

    def schedule_as_of(
        self, scheduled_at: float, time: float, callback: Callable[[], None]
    ) -> None:
        """Schedule ``callback`` at ``time`` as if it had been scheduled at
        virtual time ``scheduled_at``.

        Among events due at ``time`` it fires after every event scheduled
        at an earlier virtual time and before every event scheduled at a
        later one; events stamped with the same ``scheduled_at`` keep
        schedule-call order.
        """
        sequence = self._sequence
        self._sequence += 1
        heapq.heappush(self._queue, (time, scheduled_at, sequence, callback))

    def run_until(self, end_time: float) -> None:
        """Process events with ``time <= end_time`` in order.

        The virtual clock always advances to ``end_time``, even when
        the queue is empty (or drains early) — callers like the serving
        runtime rely on this to measure a fixed horizon regardless of
        how quiet the run was.  A past ``end_time`` leaves ``now``
        untouched.
        """
        queue = self._queue
        while queue and queue[0][0] <= end_time:
            time, _at, _sequence, callback = heapq.heappop(queue)
            self.now = time
            callback()
            self.events_processed += 1
        self.now = max(self.now, end_time)

    def run(self) -> None:
        """Run until the event queue drains."""
        queue = self._queue
        while queue:
            time, _at, _sequence, callback = heapq.heappop(queue)
            self.now = time
            callback()
            self.events_processed += 1

    @property
    def pending(self) -> int:
        """Scheduled events not yet fired."""
        return len(self._queue)
