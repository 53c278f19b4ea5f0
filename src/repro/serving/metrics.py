"""Serving metrics: per-task counters and latency histograms.

Plain dataclasses, consumed by the CLI table, the serving benchmark and
the tests.  Latency percentiles use the linear-interpolation convention
of :func:`numpy.percentile`.  :func:`latency_series` turns a run's
request records into the Fig. 11 traces.

:func:`task_metrics` builds every task's summary at once from a run's
record *columns* (task, created, deadline and completion instants, in
record order) and the drop counts the run tallied where its drops
happened: counts by ``bincount``, each task's samples as one contiguous
slice, and p50/p95/p99 by the same virtual index and two-sided lerp as
``numpy.percentile``'s ``linear`` method, bit for bit, for every task in
one pass.  :meth:`TaskServingMetrics.from_requests` is its one-task
call, so the two cannot drift.

The summaries are also a *view* of :class:`~repro.obs.metrics.
MetricsRegistry` instruments (counters for offered/admitted/completed/
drops, a raw-sample histogram for latency): a caller that passes its
session registry gets every instrument fed once per task and keeps the
time-series form after the run, with numbers bit-identical to a run
without one.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.serving.queueing import UNSET, DropReason, ServingRequest

__all__ = [
    "LatencyStats",
    "TaskServingMetrics",
    "ServingMetrics",
    "task_metrics",
    "moving_average",
    "latency_series",
]


def moving_average(values: np.ndarray, window: int = 3) -> np.ndarray:
    """Trailing moving average (the Fig. 11 smoothing, window 3)."""
    if window < 1:
        raise ValueError("window must be >= 1")
    values = np.asarray(values, dtype=float)
    if len(values) == 0:
        return values
    out = np.empty_like(values)
    for i in range(len(values)):
        lo = max(0, i - window + 1)
        out[i] = values[lo : i + 1].mean()
    return out


def latency_series(
    requests: Iterable[ServingRequest], window: int = 3
) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Per task: (completion times, smoothed end-to-end latencies).

    The Fig. 11 traces, from a run's ``last_requests``; dropped requests
    have no completion and a task that completed nothing has no entry.
    """
    by_task: dict[int, list[ServingRequest]] = {}
    done = (r for r in requests if r.completed)
    for request in sorted(done, key=lambda r: r.completed_at):
        by_task.setdefault(request.task_id, []).append(request)
    return {
        task_id: (
            np.array([r.completed_at for r in records]),
            moving_average(np.array([r.latency_s for r in records]), window),
        )
        for task_id, records in by_task.items()
    }


@dataclass(frozen=True)
class LatencyStats:
    """Summary of an end-to-end latency sample (seconds)."""

    count: int
    mean_s: float
    p50_s: float
    p95_s: float
    p99_s: float
    max_s: float

    @classmethod
    def from_histogram(cls, histogram: Histogram) -> "LatencyStats":
        """Summarize a registry histogram (raw samples, numpy math).

        All three percentiles come from a single
        :meth:`~repro.obs.metrics.Histogram.percentiles` call — one
        sort of the sample array instead of one per percentile, with
        values bit-identical to the per-call path (pinned in
        ``tests/test_serving_metrics.py``).
        """
        if histogram.count == 0:
            nan = float("nan")
            return cls(count=0, mean_s=nan, p50_s=nan, p95_s=nan, p99_s=nan, max_s=nan)
        p50, p95, p99 = histogram.percentiles((50, 95, 99))
        return cls(
            count=histogram.count,
            mean_s=histogram.mean,
            p50_s=p50,
            p95_s=p95,
            p99_s=p99,
            max_s=histogram.max,
        )


@dataclass(frozen=True)
class TaskServingMetrics:
    """One task's view of a serving run."""

    task_id: int
    #: requests generated by the devices (the offered load)
    offered: int
    #: requests past the admission gate (≈ ``z_τ`` · offered)
    admitted: int
    #: served to completion (includes late completions)
    completed: int
    #: completions past the latency target ``L_τ``
    deadline_misses: int
    drops: dict[DropReason, int]
    latency: LatencyStats

    @property
    def deadline_miss_rate(self) -> float:
        """Late completions over completions (nan when nothing completed)."""
        if self.completed == 0:
            return float("nan")
        return self.deadline_misses / self.completed

    @classmethod
    def from_requests(
        cls,
        task_id: int,
        requests: list[ServingRequest],
        registry: MetricsRegistry | None = None,
        gated: int = 0,
    ) -> "TaskServingMetrics":
        """One task's summary from its records: :func:`task_metrics` on
        one task's columns.

        With ``registry=None`` a throwaway registry is fed and only the
        summary survives; passing a session registry additionally keeps
        every instrument (``task<id>.offered``, ``task<id>.drops.<reason>``,
        the ``task<id>.latency_s`` histogram, ...) for export.

        ``gated`` counts admission-shed requests that were *not*
        materialized as records: the wave engine meters whole arrival
        waves in closed form and only allocates
        :class:`~repro.serving.queueing.ServingRequest` objects for
        admitted requests, so the shed remainder arrives here as a
        single count.  A record with a drop reason is a drop even if it
        carries a completion stamp.
        """
        drops = Counter((task_id, r.drop_reason) for r in requests if r.dropped)
        n = len(requests)
        return task_metrics(
            [task_id],
            np.zeros(n, dtype=np.intp),
            np.fromiter((r.created_at for r in requests), float, n),
            np.fromiter((r.deadline_at for r in requests), float, n),
            np.fromiter(
                (UNSET if r.dropped else r.completed_at for r in requests), float, n
            ),
            drops,
            {task_id: gated},
            registry if registry is not None else MetricsRegistry(),
        )[task_id]


#: every drop reason, in enum order (a summary lists each, zero or not)
_REASONS = tuple(DropReason)
_NAN = float("nan")
_NO_LATENCY = LatencyStats(
    count=0, mean_s=_NAN, p50_s=_NAN, p95_s=_NAN, p99_s=_NAN, max_s=_NAN
)

#: ``numpy.percentile``'s quantiles for ``(50, 95, 99)``: ``q / 100``
_QUANTILES = np.true_divide((50, 95, 99), 100)


def _percentiles(ranked: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """p50 / p95 / p99 of every group of ``ranked``, one row per group.

    Group ``g`` is ``ranked[starts[g]:starts[g] + counts[g]]``, sorted,
    ``counts[g] >= 1``.  Bit for bit ``numpy.percentile(group, (50, 95,
    99))``: virtual index ``(n - 1)·q``; neighbours ``a``, ``b`` at its
    floor and the next index, or both the last sample once the index
    reaches ``n - 1`` (where numpy counts ``γ`` from index ``-1``); then
    ``a + (b - a)·γ``, or ``b - (b - a)·(1 - γ)`` from ``γ = 0.5`` up.
    """
    last = (counts - 1)[:, None]
    virtual = last * _QUANTILES
    below = np.floor(virtual)
    top = virtual >= last
    below[top] = -1.0
    gamma = virtual - below
    below = below.astype(np.intp) + starts[:, None]
    last = last + starts[:, None]
    a = ranked[np.where(top, last, below)]
    b = ranked[np.where(top, last, below + 1)]
    diff = b - a
    out = a + diff * gamma
    upper = gamma >= 0.5
    out[upper] = (b - diff * (1 - gamma))[upper]
    return out


def task_metrics(
    task_ids: Sequence[int],
    task_of: np.ndarray,
    created: np.ndarray,
    deadline: np.ndarray,
    completed: np.ndarray,
    drops: Mapping[tuple[int, DropReason], int],
    gated: Mapping[int, int],
    registry: MetricsRegistry | None = None,
) -> dict[int, TaskServingMetrics]:
    """Every task's summary from a run's record columns, in one pass.

    Record ``i`` belongs to task ``task_ids[task_of[i]]`` and is
    ``completed[i]`` (NaN unless it completed, so a drop is NaN there);
    each task's latency samples are its completions in record order.
    ``drops`` counts the dropped records per ``(task id, reason)``;
    ``gated`` the admission-shed requests per task that have no record.
    A summary reads what ``registry``'s instruments hold once fed (a
    shared registry accumulates across calls); without one, the same
    numbers come straight from the columns.
    """
    n_tasks = len(task_ids)
    records = np.bincount(task_of, minlength=n_tasks).tolist()
    late = np.bincount(
        task_of[completed > deadline + 1e-12], minlength=n_tasks
    ).tolist()
    # completions grouped by task, each task's in record order: one sort
    # of (task, row) keys
    n = len(completed)
    done = np.flatnonzero(completed == completed)  # not NaN
    done = np.sort(task_of[done] * n + done) % n
    counts = np.bincount(task_of[done], minlength=n_tasks)
    samples = completed[done] - created[done]
    del done
    ends = np.cumsum(counts)
    starts = ends - counts
    spans = list(zip(starts.tolist(), ends.tolist()))
    ranked = samples.copy()
    for lo, hi in spans:
        ranked[lo:hi].sort()
    has = counts > 0
    ranks = np.full((n_tasks, 3), np.nan)
    ranks[has] = _percentiles(ranked, starts[has], counts[has])
    latencies = [
        LatencyStats(
            count=hi - lo,
            # pairwise over the task's slice, as the histogram's mean sums
            mean_s=float(samples[lo:hi].mean()),
            p50_s=p50, p95_s=p95, p99_s=p99,
            max_s=float(ranked[hi - 1]),
        )
        if hi > lo
        else _NO_LATENCY
        for (lo, hi), (p50, p95, p99) in zip(spans, ranks.tolist())
    ]

    per_task = {task_id: dict.fromkeys(_REASONS, 0) for task_id in task_ids}
    for (task_id, reason), count in drops.items():
        per_task[task_id][reason] += count
    out: dict[int, TaskServingMetrics] = {}
    for t, task_id in enumerate(task_ids):
        shed = gated.get(task_id, 0)
        dropped = per_task[task_id]
        dropped[DropReason.ADMISSION] += shed
        lo, hi = spans[t]
        offered, served, missed = shed + records[t], hi - lo, late[t]
        latency = latencies[t]
        if registry is not None:
            histogram = registry.histogram(f"task{task_id}.latency_s")
            fresh = histogram.count == 0
            histogram.samples.extend(samples[lo:hi].tolist())
            offered, served, missed, dropped = _feed(
                registry, task_id, offered, served, missed, dropped
            )
            if not fresh:  # earlier runs' samples are in it too
                latency = LatencyStats.from_histogram(histogram)
        out[task_id] = TaskServingMetrics(
            task_id=task_id,
            offered=offered,
            admitted=offered - dropped[DropReason.ADMISSION],
            completed=served,
            deadline_misses=missed,
            drops=dropped,
            latency=latency,
        )
    return out


def _feed(
    registry: MetricsRegistry,
    task_id: int,
    offered: int,
    completed: int,
    late: int,
    dropped: dict[DropReason, int],
) -> tuple[int, int, int, dict[DropReason, int]]:
    """Add one task's counts to its registry counters, once each, and
    read the totals back (a shared registry accumulates across runs)."""
    prefix = f"task{task_id}."
    counters = [
        registry.counter(prefix + name)
        for name in ("offered", "completed", "deadline_misses")
    ]
    drop_counters = {
        reason: registry.counter(prefix + f"drops.{reason.value}")
        for reason in DropReason
    }
    for counter, count in zip(counters, (offered, completed, late)):
        counter.inc(count)
    for reason, counter in drop_counters.items():
        counter.inc(dropped[reason])
    return (
        *(int(counter.value) for counter in counters),
        {reason: int(counter.value) for reason, counter in drop_counters.items()},
    )


@dataclass
class ServingMetrics:
    """Whole-run metrics: per-task summaries plus executor aggregates."""

    duration_s: float
    tasks: dict[int, TaskServingMetrics] = field(default_factory=dict)
    #: simulated GPU seconds actually charged
    total_compute_s: float = 0.0
    #: GPU seconds avoided by the shared-block prefix cache
    compute_saved_s: float = 0.0
    #: batching windows executed
    windows: int = 0
    #: trie nodes where requests of distinct paths were fused
    prefix_merges: int = 0

    @property
    def completed(self) -> int:
        return sum(t.completed for t in self.tasks.values())

    @property
    def offered(self) -> int:
        return sum(t.offered for t in self.tasks.values())

    @property
    def throughput_rps(self) -> float:
        if self.duration_s <= 0:
            return float("nan")
        return self.completed / self.duration_s

    @property
    def deadline_miss_rate(self) -> float:
        """Late completions over all completions, across tasks."""
        completed = self.completed
        if completed == 0:
            return float("nan")
        return sum(t.deadline_misses for t in self.tasks.values()) / completed

    def task_order(self) -> list[int]:
        """Task ids in ascending order, sorted once and cached.

        ``summary_rows`` (and report code iterating tasks) used to
        re-sort the task dict on every call; the order is fixed once
        the run's tasks are known, so it is materialized lazily and
        invalidated only if the task set changes size.
        """
        cached = self.__dict__.get("_task_order")
        if cached is None or len(cached) != len(self.tasks):
            cached = sorted(self.tasks)
            self.__dict__["_task_order"] = cached
        return cached

    def summary_rows(self) -> list[list]:
        """Per-task rows for :func:`repro.analysis.report.format_table`.

        Latency and miss-rate columns are undefined for a task with no
        completions; those cells render as ``-`` instead of leaking
        ``nan`` (or ``100.0 * nan``) into the table.
        """
        rows = []
        for task_id in self.task_order():
            t = self.tasks[task_id]
            if t.completed == 0:
                p50, p95, miss = "-", "-", "-"
            else:
                p50 = t.latency.p50_s * 1e3
                p95 = t.latency.p95_s * 1e3
                miss = 100.0 * t.deadline_miss_rate
            rows.append(
                [
                    task_id,
                    t.offered,
                    t.completed,
                    p50,
                    p95,
                    miss,
                    t.drops[DropReason.ADMISSION],
                    t.drops[DropReason.QUEUE_FULL],
                    t.drops[DropReason.DEADLINE],
                    t.drops[DropReason.REMOTE_ERROR]
                    + t.drops[DropReason.TRANSFER_TIMEOUT],
                ]
            )
        return rows

    SUMMARY_HEADER = [
        "task", "offered", "served", "p50 ms", "p95 ms",
        "miss %", "gated", "q-drop", "dl-drop", "net-drop",
    ]
