"""Metrics registry: counters, gauges, histograms, and a DES sampler.

The registry is the time-series face of the post-hoc summaries
(:class:`repro.serving.metrics.ServingMetrics` and its per-task
:class:`~repro.serving.metrics.TaskServingMetrics`): those dataclasses
are *derived from* registry instruments fed with the same samples, so
their numbers are bit-identical with and without a shared registry —
but when a run attaches one, every counter, gauge series and histogram
survives the run and can be exported next to the trace.

:class:`Histogram` keeps raw samples (runs here are bounded — at most
one sample per request) so percentiles use exactly the
``numpy.percentile`` linear interpolation the summaries always used;
there is no bucketing error to reconcile.

:class:`DesSampler` is the periodic half: probes (queue depths,
token-bucket credit, pool busyness, cache hit rates) are sampled on the
DES virtual clock, so the resulting gauge series are deterministic
across runs and cheap — sampling costs one event per period, not one
per request.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry", "DesSampler"]


@dataclass
class Counter:
    """Monotonically increasing count."""

    name: str
    value: float = 0.0

    def inc(self, n: float = 1.0) -> None:
        self.value += n


@dataclass
class Gauge:
    """Point-in-time value, optionally sampled into a (t, value) series."""

    name: str
    value: float = 0.0
    #: (timestamp, value) samples appended by :class:`DesSampler`
    series: list[tuple[float, float]] = field(default_factory=list)

    def set(self, value: float) -> None:
        self.value = value

    def sample(self, t: float, value: float) -> None:
        self.value = value
        self.series.append((t, value))


@dataclass
class Histogram:
    """Raw-sample histogram with numpy-exact percentiles."""

    name: str
    samples: list[float] = field(default_factory=list)

    def observe(self, value: float) -> None:
        self.samples.append(value)

    def observe_many(self, values) -> None:
        """Bulk-observe a sequence (numpy array or list) of samples.

        One ``extend`` instead of N ``observe`` calls; the wave engine
        records whole latency buffers this way.  Values are coerced to
        python floats so the sample list stays homogeneous with the
        scalar :meth:`observe` path.
        """
        self.samples.extend(float(v) for v in values)

    @property
    def count(self) -> int:
        return len(self.samples)

    @property
    def sum(self) -> float:
        return float(np.sum(self.samples)) if self.samples else 0.0

    @property
    def mean(self) -> float:
        if not self.samples:
            return float("nan")
        return float(np.asarray(self.samples, dtype=float).mean())

    @property
    def max(self) -> float:
        if not self.samples:
            return float("nan")
        return float(np.asarray(self.samples, dtype=float).max())

    def percentile(self, q: float) -> float:
        if not self.samples:
            return float("nan")
        return float(np.percentile(np.asarray(self.samples, dtype=float), q))

    def percentiles(self, qs: tuple[float, ...]) -> tuple[float, ...]:
        """Several percentiles from one sort.

        ``np.percentile`` with a vector of quantiles partitions the
        sample array once and interpolates each ``q`` from it — same
        linear-interpolation values as per-``q`` calls (pinned by the
        metrics tests), at one array conversion and one sort instead of
        one per percentile.
        """
        if not self.samples:
            nan = float("nan")
            return tuple(nan for _ in qs)
        values = np.percentile(np.asarray(self.samples, dtype=float), list(qs))
        return tuple(float(v) for v in values)

    def summary(self) -> dict:
        p50, p95, p99 = self.percentiles((50, 95, 99))
        return {
            "count": self.count,
            "mean": self.mean,
            "p50": p50,
            "p95": p95,
            "p99": p99,
            "max": self.max,
        }


class MetricsRegistry:
    """Named instruments, created on first use.

    Names are flat dotted strings (``"task3.drops.deadline"``); a name
    is bound to exactly one instrument kind for its lifetime.
    """

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        instrument = self.counters.get(name)
        if instrument is None:
            self._check_free(name, self.counters)
            instrument = self.counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self.gauges.get(name)
        if instrument is None:
            self._check_free(name, self.gauges)
            instrument = self.gauges[name] = Gauge(name)
        return instrument

    def histogram(self, name: str) -> Histogram:
        instrument = self.histograms.get(name)
        if instrument is None:
            self._check_free(name, self.histograms)
            instrument = self.histograms[name] = Histogram(name)
        return instrument

    def _check_free(self, name: str, own: dict) -> None:
        for kind in (self.counters, self.gauges, self.histograms):
            if kind is not own and name in kind:
                raise ValueError(f"metric {name!r} already registered as another kind")

    def snapshot(self) -> dict:
        """JSON-ready dump: counter values, gauge series, histogram summaries."""
        return {
            "counters": {n: c.value for n, c in sorted(self.counters.items())},
            "gauges": {
                n: {"value": g.value, "series": [[t, v] for t, v in g.series]}
                for n, g in sorted(self.gauges.items())
            },
            "histograms": {
                n: h.summary() for n, h in sorted(self.histograms.items())
            },
        }


class DesSampler:
    """Periodic gauge sampling on a discrete-event simulator's clock.

    Probes are ``(gauge name, zero-arg callable)`` pairs evaluated every
    ``period_s`` of virtual time.  The sampler re-schedules itself only
    while ``while_fn`` holds, so it never keeps an otherwise-drained
    event queue alive.
    """

    def __init__(self, registry: MetricsRegistry, period_s: float = 0.05) -> None:
        if period_s <= 0:
            raise ValueError("period_s must be positive")
        self.registry = registry
        self.period_s = period_s
        self.probes: list[tuple[str, Callable[[], float]]] = []
        self.samples_taken = 0

    def add_probe(self, name: str, fn: Callable[[], float]) -> None:
        self.probes.append((name, fn))

    def attach(self, sim, while_fn: Callable[[], bool] = lambda: True) -> None:
        """Start sampling on ``sim`` (first sample at the current time)."""

        def tick() -> None:
            now = sim.now
            for name, fn in self.probes:
                self.registry.gauge(name).sample(now, float(fn()))
            self.samples_taken += 1
            if while_fn():
                sim.schedule(self.period_s, tick)

        sim.schedule(0.0, tick)
