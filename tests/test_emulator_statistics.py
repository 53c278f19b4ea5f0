"""Per-task statistics and busy-time accounting of a request-level run."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ClusterDeployment, default_topology
from repro.cluster.node import BusyTracker, ClusterNode, NodeSpec
from repro.core.heuristic import OffloaDNNSolver
from repro.obs import ObsSession
from repro.serving import ServingConfig, ServingRuntime, TaskServingMetrics, fig11_runtime
from tests.conftest import make_request
from tests.oracles import full_walk_within, replicated_serving_problem


class TestTaskStatistics:
    """``TaskServingMetrics`` is the one per-task statistics type."""

    def _stats(self, deadline_s=0.5):
        records = [make_request(1, 0, 0.0, 0.25, deadline_s), make_request(1, 1, 1.0, 1.3, deadline_s)]
        return TaskServingMetrics.from_requests(1, records)

    def test_decomposition(self):
        stats = self._stats()
        assert stats.offered == stats.admitted == stats.completed == 2
        assert stats.latency.mean_s == pytest.approx((0.25 + 0.3) / 2)

    def test_deadline_misses(self):
        assert self._stats(deadline_s=0.27).deadline_miss_rate == pytest.approx(0.5)

    def test_empty_records(self):
        stats = TaskServingMetrics.from_requests(1, [])
        assert stats.completed == 0
        assert np.isnan(stats.latency.mean_s) and np.isnan(stats.deadline_miss_rate)

    def test_p95_at_least_mean(self):
        assert self._stats().latency.p95_s >= self._stats().latency.mean_s


class TestServerUtilization:
    """Clamped busy-time accounting (``BusyTracker`` under ``ClusterNode``)."""

    def test_busy_time_accumulates(self):
        node = ClusterNode(NodeSpec("gpu"))
        for _ in range(3):
            node.execute(0.1, now=0.0)
        assert node.busy_time_s == pytest.approx(0.3)
        assert node.utilization(1.0) == pytest.approx(0.3)

    def test_utilization_capped_at_one(self):
        node = ClusterNode(NodeSpec("gpu"))
        node.busy[0].add(0.0, 10.0)
        assert node.utilization(5.0) == 1.0

    def test_utilization_clamps_service_past_horizon(self):
        """Regression: a service tail past the run horizon used to push
        utilization above 1.0; busy time is now clamped to the window."""
        node = ClusterNode(NodeSpec("gpu"))
        for _ in range(3):  # 6 s of service submitted at t=0
            node.execute(2.0, now=0.0)
        assert node.busy_time_s == pytest.approx(6.0)
        # a 1 s horizon sees exactly 1 s of busy GPU, not 6 s
        assert node.utilization(1.0) == pytest.approx(1.0)
        assert node.busy[0].within(1.0) == pytest.approx(1.0)
        assert node.utilization(8.0) == pytest.approx(0.75)

    def test_busy_tracker_windows_and_gaps(self):
        tracker = BusyTracker()
        tracker.add(0.0, 1.0)
        tracker.add(1.0, 2.0)  # contiguous: coalesces
        tracker.add(5.0, 7.0)
        assert len(tracker.periods) == 2
        assert tracker.total_s == pytest.approx(4.0)
        assert tracker.within(0.5) == pytest.approx(0.5)
        assert tracker.within(3.0) == pytest.approx(2.0)
        assert tracker.within(6.0) == pytest.approx(3.0)
        assert tracker.within(100.0) == pytest.approx(4.0)

    def test_invalid_duration(self):
        with pytest.raises(ValueError):
            ClusterNode(NodeSpec("gpu")).utilization(0.0)

    @settings(max_examples=300, deadline=None)
    @given(
        steps=st.lists(
            st.tuples(
                # gap after the busy horizon: none and sub-1e-12 coalesce
                st.one_of(st.just(0.0), st.floats(0.0, 1e-12), st.floats(0.0, 4.0)),
                st.floats(0.0, 3.0),
                st.lists(st.floats(-1.0, 200.0), max_size=3),
            ),
            max_size=40,
        )
    )
    def test_within_is_the_full_walk_bit_for_bit(self, steps):
        """Queries between adds, at every period edge and anywhere else."""
        tracker, horizon = BusyTracker(), 0.0
        for gap, length, queries in steps:
            start = horizon + gap
            tracker.add(start, start + length)
            horizon = max(horizon, start + length)
            edges = [t for period in tracker.periods for t in period]
            for d in [*queries, *edges[-3:]]:
                assert tracker.within(d).hex() == full_walk_within(tracker, d).hex()
        for d in [t for period in tracker.periods for t in period]:
            assert tracker.within(d).hex() == full_walk_within(tracker, d).hex()

    def test_within_is_the_full_walk_on_a_long_random_stream(self):
        """Thousands of periods with unrounded lengths, so every sum
        rounds: queries in any order, before, inside and after them."""
        rng = np.random.default_rng(5)
        tracker, horizon = BusyTracker(), 0.0
        for gap, length in zip(
            rng.choice([0.0, 1e-13, 0.01, 0.3], 3000) * rng.random(3000),
            rng.exponential(0.05, 3000),
        ):
            start = horizon + float(gap)
            tracker.add(start, start + float(length))
            horizon = max(horizon, start + float(length))
        for d in rng.uniform(-1.0, horizon + 1.0, 400).tolist():
            assert tracker.within(d).hex() == full_walk_within(tracker, d).hex()


class _CountedPeriods(list):
    """A tracker's period list that counts element reads and walks."""

    reads = walks = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)

    def __iter__(self):
        self.walks += 1
        return super().__iter__()


def test_traced_cluster_run_samples_utilization_without_walking_periods():
    """Every 50 ms a traced cluster run samples each node's utilization.
    A sample reads O(log periods) of a tracker's periods, and each period
    joins the running sums once — the samples used to walk every period,
    O(duration²) per run — and the gauge series are the full walk's."""
    series, reads, within_of_a_tracker = [], [], BusyTracker.within

    def counted(tracker, duration_s):
        before = tracker.periods.reads
        value = within_of_a_tracker(tracker, duration_s)
        reads.append(tracker.periods.reads - before)
        return value

    for within in (counted, full_walk_within):
        config = ServingConfig(duration_s=20.0, seed=3, poisson=True)
        runtime = ServingRuntime.from_problem(
            replicated_serving_problem(2), config,
            solver=OffloaDNNSolver(slice_margin_rbs=10),
        )
        runtime.cluster = ClusterDeployment.place(
            runtime.problem, runtime.solution, runtime.tickets, default_topology(4)
        )
        trackers = [
            tracker
            for node in runtime.cluster.registry.ordered_nodes()
            for tracker in node.busy
        ]
        for tracker in trackers:
            tracker.periods = _CountedPeriods()
        runtime.obs = ObsSession()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(BusyTracker, "within", within)
            runtime.run()
        gauges = runtime.obs.registry.gauges
        series.append(
            repr({name: g.series for name, g in gauges.items() if name.endswith(".util")})
        )
        if within is counted:
            assert sum(tracker.periods.walks for tracker in trackers) == 0
            periods = [len(tracker.periods) for tracker in trackers]
    assert max(periods) > 300 and len(reads) > 1000
    per_sample = math.ceil(math.log2(max(periods) + 1)) + 3
    assert sum(reads) <= sum(periods) + len(reads) * per_sample
    assert series[0] == series[1]


class TestEmulationStatistics:
    def test_full_run_statistics(self):
        runtime = fig11_runtime(num_tasks=3, duration_s=8.0)
        metrics = runtime.run()
        assert set(metrics.tasks) == {1, 2, 3}
        for stats in metrics.tasks.values():
            assert stats.completed > 30  # ~5 req/s for 8 s
            assert stats.deadline_misses == 0
            assert stats.completed / 8.0 == pytest.approx(5.0, rel=0.15)
        for r in runtime.last_requests:  # transmission dominates here
            assert r.uplink_done_at - r.created_at > r.completed_at - r.started_at
        assert 0.0 < runtime.executor.utilization(metrics.duration_s) < 0.5
