"""Per-task statistics and busy-time accounting of a request-level run."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster.node import BusyTracker, ClusterNode, NodeSpec
from repro.serving import TaskServingMetrics, fig11_runtime
from tests.conftest import make_request


class TestTaskStatistics:
    """``TaskServingMetrics`` is the one per-task statistics type."""

    def _stats(self, deadline_s=0.5):
        records = [make_request(1, 0, 0.0, 0.25, deadline_s), make_request(1, 1, 1.0, 1.3, deadline_s)]
        return TaskServingMetrics.from_requests(1, records)

    def test_decomposition(self):
        stats = self._stats()
        assert stats.offered == stats.admitted == stats.completed == 2
        assert stats.latency.mean_s == pytest.approx((0.25 + 0.3) / 2)
        assert stats.served_fraction == 1.0

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
