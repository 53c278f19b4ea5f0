"""Metrics edge cases: percentile summaries with 0 and 1 samples."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.obs.metrics import MetricsRegistry
from repro.serving.metrics import LatencyStats, ServingMetrics, TaskServingMetrics
from repro.serving.queueing import DropReason, ServingRequest


class TestLatencyStatsEdgeCases:
    def test_empty_sample_is_nan_everywhere(self):
        stats = LatencyStats.from_samples([])
        assert stats.count == 0
        for value in (stats.mean_s, stats.p50_s, stats.p95_s, stats.p99_s, stats.max_s):
            assert math.isnan(value)

    def test_single_sample_percentiles_degenerate(self):
        stats = LatencyStats.from_samples([0.042])
        assert stats.count == 1
        # with one sample every percentile IS the sample
        assert stats.mean_s == pytest.approx(0.042)
        assert stats.p50_s == pytest.approx(0.042)
        assert stats.p95_s == pytest.approx(0.042)
        assert stats.p99_s == pytest.approx(0.042)
        assert stats.max_s == pytest.approx(0.042)

    def test_two_samples_interpolate(self):
        stats = LatencyStats.from_samples([0.010, 0.030])
        assert stats.p50_s == pytest.approx(0.020)
        assert stats.p95_s == pytest.approx(np.percentile([0.010, 0.030], 95))
        assert stats.max_s == pytest.approx(0.030)


class TestZeroRequestMetrics:
    def _empty_task(self) -> TaskServingMetrics:
        return TaskServingMetrics.from_requests(1, [])

    def test_task_rates_are_nan_not_crash(self):
        task = self._empty_task()
        assert task.offered == 0 and task.completed == 0
        assert math.isnan(task.deadline_miss_rate)
        assert math.isnan(task.served_fraction)
        assert all(count == 0 for count in task.drops.values())

    def test_run_summary_with_no_traffic(self):
        metrics = ServingMetrics(duration_s=5.0)
        metrics.tasks[1] = self._empty_task()
        assert metrics.completed == 0
        assert metrics.throughput_rps == pytest.approx(0.0)
        assert math.isnan(metrics.deadline_miss_rate)
        rows = metrics.summary_rows()
        assert len(rows) == 1
        # p50/p95/miss cells are undefined without completions and must
        # render as "-" rather than leaking nan (or 100.0 * nan)
        assert rows[0][0] == 1
        assert rows[0][3] == "-" and rows[0][4] == "-" and rows[0][5] == "-"

    def test_zero_duration_throughput_is_nan(self):
        assert math.isnan(ServingMetrics(duration_s=0.0).throughput_rps)

    def test_drop_reasons_enumerated_even_when_empty(self):
        task = self._empty_task()
        assert set(task.drops) == set(DropReason)


class TestSingleSortPercentiles:
    """Percentiles are computed from one sort per report (satellite S2).

    The pinned values are what the per-percentile ``np.percentile``
    calls always produced; the batched ``Histogram.percentiles`` path
    must reproduce them bit for bit.
    """

    SAMPLES = [0.012, 0.051, 0.008, 0.033, 0.090, 0.027, 0.061, 0.005,
               0.044, 0.019, 0.072, 0.038]

    def test_latency_stats_pinned_values(self):
        stats = LatencyStats.from_samples(self.SAMPLES)
        values = np.asarray(self.SAMPLES, dtype=float)
        assert stats.p50_s == float(np.percentile(values, 50))
        assert stats.p95_s == float(np.percentile(values, 95))
        assert stats.p99_s == float(np.percentile(values, 99))
        # and against hard-coded references so a convention change trips
        assert stats.p50_s == pytest.approx(0.0355, abs=1e-12)
        assert stats.p95_s == pytest.approx(0.08010000000000002, abs=1e-15)
        assert stats.p99_s == pytest.approx(0.08802000000000001, abs=1e-15)

    def test_batched_percentiles_match_per_call(self):
        from repro.obs.metrics import Histogram

        rng = np.random.default_rng(7)
        histogram = Histogram(name="h")
        histogram.observe_many(rng.exponential(0.02, size=1001))
        batched = histogram.percentiles((50, 95, 99))
        assert batched == tuple(histogram.percentile(q) for q in (50, 95, 99))


class TestTalliedInstruments:
    """``from_requests`` counts in locals and feeds each instrument once:
    totals and the latency sample order are what per-request ``inc()`` /
    ``observe()`` calls would have left, with and without a shared registry.
    """

    @staticmethod
    def _requests() -> list[ServingRequest]:
        def record(i, completed_at=float("nan"), drop=None):
            request = ServingRequest(
                task_id=3, request_id=i, path=None, created_at=0.1 * i,
                deadline_at=0.1 * i + 0.25, bits=1.0,
            )
            request.completed_at = completed_at
            request.drop_reason = drop
            return request

        return [
            record(0, completed_at=0.2),
            record(1, drop=DropReason.QUEUE_FULL),
            record(2, completed_at=0.5),  # late: 0.5 > 0.2 + 0.25
            record(3, drop=DropReason.DEADLINE),
            record(4),  # admitted, still in flight when the run ended
            record(5, completed_at=0.6),
            record(6, drop=DropReason.QUEUE_FULL),
            # dropped after a stamp (lost mid-execution): a drop, not a completion
            record(7, completed_at=0.9, drop=DropReason.REMOTE_ERROR),
            record(8, drop=DropReason.ADMISSION),  # the scalar oracle materializes these
        ]

    @staticmethod
    def _check(task: TaskServingMetrics, registry: MetricsRegistry, runs: int) -> None:
        assert (task.offered, task.admitted, task.completed) == (
            13 * runs, 8 * runs, 3 * runs
        )
        assert task.deadline_misses == 1 * runs
        assert task.drops == {
            DropReason.ADMISSION: 5 * runs,
            DropReason.QUEUE_FULL: 2 * runs,
            DropReason.DEADLINE: 1 * runs,
            DropReason.REMOTE_ERROR: 1 * runs,
            DropReason.TRANSFER_TIMEOUT: 0,
        }
        counters = {name: c.value for name, c in registry.counters.items()}
        assert counters == {
            "task3.offered": 13.0 * runs,
            "task3.completed": 3.0 * runs,
            "task3.deadline_misses": 1.0 * runs,
            "task3.drops.admission": 5.0 * runs,
            "task3.drops.queue_full": 2.0 * runs,
            "task3.drops.deadline": 1.0 * runs,
            "task3.drops.remote_error": 1.0 * runs,
            "task3.drops.transfer_timeout": 0.0,
        }
        assert all(type(value) is float for value in counters.values())
        # creation order, one sample per completion
        assert registry.histograms["task3.latency_s"].samples == [
            0.2 - 0.0, 0.5 - 0.1 * 2, 0.6 - 0.1 * 5
        ] * runs

    def test_shared_registry_accumulates_across_runs(self):
        registry = MetricsRegistry()
        for runs in (1, 2):
            task = TaskServingMetrics.from_requests(
                3, self._requests(), registry=registry, gated=4
            )
            self._check(task, registry, runs)

    def test_private_registry_gives_the_same_summary(self, monkeypatch):
        created: list[MetricsRegistry] = []
        init = MetricsRegistry.__init__

        def remember(self):
            init(self)
            created.append(self)

        monkeypatch.setattr(MetricsRegistry, "__init__", remember)
        task = TaskServingMetrics.from_requests(3, self._requests(), gated=4)
        (registry,) = created
        self._check(task, registry, 1)
        shared = TaskServingMetrics.from_requests(
            3, self._requests(), registry=MetricsRegistry(), gated=4
        )
        assert task == shared
