"""Span tracing with zero overhead when disabled.

A :class:`Tracer` records structured :class:`SpanRecord` entries —
named, categorized intervals on a *track* — plus instant events.  Two
clock domains coexist in this codebase:

* **wall** time (``time.perf_counter``): solver phases, compiled-engine
  execution, anything measured on the host CPU;
* **virtual** time (``Simulator.now``): the serving runtime and the
  emulator, whose DES timestamps are deterministic across runs and can
  therefore be asserted byte-for-byte in tests.

A tracer is created for exactly one domain; sessions that need both
hold one tracer per domain (see :class:`repro.obs.session.ObsSession`).

**The overhead contract.**  Instrumentation sites must stay free when
tracing is off.  The disabled state is the :data:`NULL_TRACER`
singleton, whose ``span()`` returns a shared no-op context manager and
whose ``record``/``event`` methods do nothing, so a site costs one
attribute load and a predicate.  Hot loops (the compiled engine's plan
steps) hoist the check::

    tracer = current_tracer()
    if tracer.enabled:          # one predicate per forward, not per step
        ... spanned loop ...
    else:
        ... bare loop ...

**Context propagation.**  The current tracer lives in a thread-local;
:func:`current_tracer` reads it and :func:`use_tracer` /
:func:`activate` set it.  Propagation into spawned workers is
*explicit*: a worker thread inherits nothing and must call
``activate(tracer)`` itself (list appends are GIL-atomic, so threads
may share one tracer).
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable

__all__ = [
    "SpanRecord",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "current_tracer",
    "activate",
    "deactivate",
    "use_tracer",
]


@dataclass(frozen=True)
class SpanRecord:
    """One traced interval (``phase="X"``) or instant (``phase="i"``).

    ``ts``/``dur`` are seconds in the owning tracer's clock domain.
    ``args`` is a plain dict of JSON-serializable values; its insertion
    order is preserved by the exporters, so identical runs produce
    identical files.
    """

    name: str
    ts: float
    dur: float
    cat: str = ""
    track: str = "main"
    phase: str = "X"
    args: dict | None = None


class _NoopSpan:
    """Shared context manager returned by the disabled tracer."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NOOP_SPAN = _NoopSpan()


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    A singleton (:data:`NULL_TRACER`) so instrumentation sites can be
    written unconditionally; ``enabled`` is the one predicate hot loops
    are allowed to pay.
    """

    __slots__ = ()
    enabled = False

    def span(self, name: str, cat: str = "", track: str = "main", **args):
        return _NOOP_SPAN

    def record(self, *a, **k) -> None:
        pass

    def event(self, *a, **k) -> None:
        pass

    def event_at(self, *a, **k) -> None:
        pass


NULL_TRACER = NullTracer()


class _SpanContext:
    """Live span: stamps ``clock()`` on enter, records on exit."""

    __slots__ = ("_tracer", "_name", "_cat", "_track", "_args", "_start")

    def __init__(self, tracer: "Tracer", name: str, cat: str, track: str, args: dict):
        self._tracer = tracer
        self._name = name
        self._cat = cat
        self._track = track
        self._args = args
        self._start = 0.0

    def __enter__(self) -> "_SpanContext":
        self._start = self._tracer.clock()
        return self

    def __exit__(self, *exc) -> None:
        tracer = self._tracer
        end = tracer.clock()
        tracer.records.append(
            SpanRecord(
                name=self._name,
                ts=self._start,
                dur=end - self._start,
                cat=self._cat,
                track=self._track,
                args=self._args or None,
            )
        )


@dataclass
class Tracer:
    """Span recorder for one clock domain.

    ``clock`` supplies timestamps for context-manager spans and bare
    events; DES instrumentation that knows both endpoints explicitly
    uses :meth:`record` / :meth:`event_at` instead and never calls the
    clock.  ``domain`` labels the exported process ("wall" spans are
    rebased to the first span; "virtual" timestamps are kept absolute —
    the DES clock starts at 0 and is meaningful as-is).
    """

    clock: Callable[[], float] = time.perf_counter
    domain: str = "wall"
    records: list[SpanRecord] = field(default_factory=list)
    enabled: bool = field(default=True, init=False)

    def span(self, name: str, cat: str = "", track: str = "main", **args):
        """Context manager timing a code region on ``clock``."""
        return _SpanContext(self, name, cat, track, args)

    def record(
        self,
        name: str,
        ts: float,
        dur: float,
        cat: str = "",
        track: str = "main",
        args: dict | None = None,
    ) -> None:
        """Record a completed span with explicit timestamps."""
        self.records.append(
            SpanRecord(name=name, ts=ts, dur=dur, cat=cat, track=track, args=args)
        )

    def event(self, name: str, cat: str = "", track: str = "main", **args) -> None:
        """Record an instant event at ``clock()``."""
        self.event_at(name, self.clock(), cat=cat, track=track, args=args or None)

    def event_at(
        self,
        name: str,
        ts: float,
        cat: str = "",
        track: str = "main",
        args: dict | None = None,
    ) -> None:
        """Record an instant event at an explicit timestamp."""
        self.records.append(
            SpanRecord(
                name=name, ts=ts, dur=0.0, cat=cat, track=track, phase="i", args=args
            )
        )

    def clear(self) -> None:
        self.records.clear()


_tls = threading.local()


def current_tracer() -> Tracer | NullTracer:
    """The thread's active tracer (:data:`NULL_TRACER` by default)."""
    return getattr(_tls, "tracer", NULL_TRACER)


def activate(tracer: Tracer | NullTracer) -> None:
    """Install ``tracer`` as this thread's active tracer.

    Worker threads call this explicitly — tracer context never
    propagates implicitly across thread spawns.
    """
    _tls.tracer = tracer


def deactivate() -> None:
    """Restore the disabled :data:`NULL_TRACER` for this thread."""
    _tls.tracer = NULL_TRACER


@contextmanager
def use_tracer(tracer: Tracer | NullTracer):
    """Scope ``tracer`` as the thread's active tracer."""
    previous = current_tracer()
    _tls.tracer = tracer
    try:
        yield tracer
    finally:
        _tls.tracer = previous
