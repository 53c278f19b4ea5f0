"""Cluster node roles: specs (what a node advertises) and live state.

A :class:`NodeSpec` is the static description a node publishes to the
registry when it joins the fabric — its tier (edge or cloud), relative
CPU capacity, memory, worker count, which block configs of the Table I
repository it holds resident, and a per-dispatch failure rate for
fault-injection studies.  A :class:`ClusterNode` wraps one spec with
the mutable serving-time state: a
:class:`~repro.serving.executor.WorkerPool` (the pool the single-node
:class:`~repro.serving.executor.BatchExecutor` books on too) and
clamped busy-time accounting (:class:`BusyTracker`) so per-node
utilization gauges never report > 1.0.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from operator import itemgetter

from repro.serving.executor import WorkerPool

__all__ = ["BusyTracker", "NodeSpec", "ClusterNode"]

#: recognised node tiers, in placement preference order
TIERS = ("edge", "cloud")


@dataclass(frozen=True)
class NodeSpec:
    """What one node advertises when registering with the fabric."""

    node_id: str
    #: ``"edge"`` (low-latency, near the cell) or ``"cloud"`` (far tier)
    tier: str = "edge"
    #: relative CPU speed: a block costing ``c(s)`` profiled seconds
    #: executes in ``c(s) / cpu_scale`` on this node
    cpu_scale: float = 1.0
    memory_gb: float = 8.0
    #: concurrent batching windows the node can execute
    num_workers: int = 1
    #: block ids of the Table I repository resident on this node;
    #: ``None`` advertises the full repository (replicated deployment)
    resident_blocks: frozenset[str] | None = None
    #: probability one segment dispatch to this node fails (fault injection)
    failure_rate: float = 0.0

    def __post_init__(self) -> None:
        if not self.node_id:
            raise ValueError("node_id must be non-empty")
        if self.tier not in TIERS:
            raise ValueError(f"tier must be one of {TIERS}, got {self.tier!r}")
        inf = float("inf")  # chained comparisons also reject NaN
        if not 0 < self.cpu_scale < inf:
            raise ValueError("cpu_scale must be finite and positive")
        if not 0 < self.memory_gb < inf:
            raise ValueError("memory_gb must be finite and positive")
        if self.num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if not 0.0 <= self.failure_rate < 1.0:
            raise ValueError("failure_rate must be in [0, 1)")

    def hosts(self, block_ids) -> bool:
        """Whether every block in ``block_ids`` is resident here."""
        if self.resident_blocks is None:
            return True
        return all(bid in self.resident_blocks for bid in block_ids)


@dataclass
class BusyTracker:
    """Merged busy-interval accounting, clamped to a query window.

    Service intervals on a FIFO resource are non-overlapping and start
    in nondecreasing order, so adjacent intervals coalesce into few
    contiguous busy periods.  ``within(duration_s)`` counts only the
    busy time inside ``[0, duration_s]`` — the fix for utilization
    reporting > 1.0 when the last service extends past the measured run
    horizon.  Queries keep running sums of the closed periods' lengths,
    added in period order as they are first needed, so a query is one
    bisection plus one partial period however long the run has been,
    and a run that never asks pays nothing.
    """

    #: merged (start, finish) busy periods, ascending and disjoint
    periods: list[tuple[float, float]] = field(default_factory=list)
    total_s: float = 0.0
    #: ``busy_before[k]``: busy seconds of ``periods[:k]``, for every k up
    #: to the number of closed periods a query has needed (the last
    #: period is open: the next service may still extend it)
    busy_before: list[float] = field(
        default_factory=lambda: [0.0], init=False, repr=False, compare=False
    )

    def add(self, start: float, finish: float) -> None:
        if finish < start:
            raise ValueError("finish must be >= start")
        self.total_s += finish - start
        if self.periods:
            last_start, last_finish = self.periods[-1]
            if start <= last_finish + 1e-12:  # contiguous service: coalesce
                self.periods[-1] = (last_start, max(last_finish, finish))
                return
        self.periods.append((start, finish))

    def within(self, duration_s: float) -> float:
        """Busy seconds that fall inside the window ``[0, duration_s]``."""
        periods, sums = self.periods, self.busy_before
        if not periods:
            return 0.0
        # periods ending by ``duration_s`` count whole, one running past
        # it counts up to it, the ones after it not at all
        whole = bisect_right(periods, duration_s, key=itemgetter(1))
        while len(sums) <= min(whole, len(periods) - 1):
            start, finish = periods[len(sums) - 1]
            sums.append(sums[-1] + (finish - start))
        if whole == len(periods):
            start, finish = periods[-1]
            return sums[-1] + (finish - start)
        busy, start = sums[whole], periods[whole][0]
        if start < duration_s:
            busy += duration_s - start
        return busy

    def clear(self) -> None:
        self.periods.clear()
        del self.busy_before[1:]
        self.total_s = 0.0


@dataclass
class ClusterNode:
    """One registered node's serving-time state."""

    spec: NodeSpec
    pool: WorkerPool = field(init=False, repr=False)
    #: one clamped busy tracker per worker (per-worker service intervals
    #: are FIFO and non-overlapping, which is what BusyTracker assumes)
    busy: list[BusyTracker] = field(init=False)
    #: segment executions completed (including retried dispatches)
    segments_executed: int = 0
    #: dispatches that failed on this node (fault injection draws)
    dispatch_failures: int = 0

    def __post_init__(self) -> None:
        self.pool = WorkerPool(self.spec.num_workers)
        self.busy = [BusyTracker() for _ in range(self.spec.num_workers)]

    @property
    def node_id(self) -> str:
        return self.spec.node_id

    @property
    def earliest_free_at(self) -> float:
        return min(self.pool.free_at)

    def busy_workers(self, now: float) -> int:
        return self.pool.busy_workers(now)

    def scaled_cost(self, compute_s: float) -> float:
        """Execution time of ``compute_s`` profiled seconds on this CPU."""
        return compute_s / self.spec.cpu_scale

    def execute(
        self, compute_s: float, now: float, worker: int | None = None
    ) -> tuple[int, float, float]:
        """Queue ``compute_s`` of (already scaled) work on the node's pool.

        On ``worker`` if one is named, else on the earliest-free worker;
        returns ``(worker, start, finish)``, like the pool's ``claim``.
        """
        worker, start, finish = self.pool.claim(compute_s, now, worker)
        self.busy[worker].add(start, finish)
        self.segments_executed += 1
        return worker, start, finish

    @property
    def busy_time_s(self) -> float:
        """Total worker-seconds of service (unclamped)."""
        return sum(tracker.total_s for tracker in self.busy)

    def utilization(self, duration_s: float) -> float:
        """Mean worker busy fraction over ``[0, duration_s]``, clamped.

        Busy time is clamped to the window: a service tail past the
        horizon only contributes the part inside ``[0, duration_s]``, so
        the gauge never exceeds 1.0 by construction (the ``min`` stays
        as a float-safety belt).
        """
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        busy_within = sum(tracker.within(duration_s) for tracker in self.busy)
        return min(1.0, busy_within / (self.spec.num_workers * duration_s))

    def reset(self) -> None:
        self.pool = WorkerPool(self.spec.num_workers)
        for tracker in self.busy:
            tracker.clear()
        self.segments_executed = 0
        self.dispatch_failures = 0
