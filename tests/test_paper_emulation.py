"""Integration tests: the Colosseum-substitute emulation (Fig. 11), a
``ServingRuntime`` configuration; every claim is read off its request records."""

from __future__ import annotations

import numpy as np
import pytest

from repro.serving import fig11_runtime, latency_series


@pytest.fixture(scope="module")
def emulation():
    runtime = fig11_runtime(num_tasks=5, duration_s=20.0, seed=0)
    return runtime, runtime.run()


class TestFig11:
    def test_all_five_tasks_admitted(self, emulation):
        runtime, _ = emulation
        assert sum(1 for t in runtime.tickets.values() if t.admitted) == 5

    def test_latencies_within_targets(self, emulation):
        """The Fig. 11 validation: smoothed end-to-end latency stays
        within each task's constraint for the whole run."""
        runtime, metrics = emulation
        series = latency_series(runtime.last_requests, window=3)
        assert set(series) == {1, 2, 3, 4, 5}
        for task_id, (_, smoothed) in series.items():
            assert (smoothed <= runtime.problem.task(task_id).max_latency_s).all()
        # nothing shed, dropped or late on the way there
        assert metrics.completed == metrics.offered and metrics.deadline_miss_rate == 0.0

    def test_every_task_produces_samples(self, emulation):
        runtime, _ = emulation
        for times, latencies in latency_series(runtime.last_requests).values():
            assert len(times) == 101  # 5 req/s for 20 s, first at t = 0
            assert np.isfinite(latencies).all()

    def test_latency_reflects_slice_size(self, emulation):
        """Transmission dominates: task 1 has the tightest limit, gets
        the largest slice and still runs closest to its target."""
        runtime, metrics = emulation
        blocks = {t: ticket.radio_blocks for t, ticket in runtime.tickets.items()}
        assert max(blocks, key=blocks.get) == 1
        assert 0.1962 <= metrics.tasks[1].latency.mean_s <= 0.1975
        for task in runtime.problem.tasks[1:]:  # everyone else has > 90 ms to spare
            assert metrics.tasks[task.task_id].latency.max_s < task.max_latency_s - 0.09

    def test_deterministic_arrivals_reproducible(self):
        series = []
        for _ in range(2):
            runtime = fig11_runtime(num_tasks=2, duration_s=5.0, seed=7)
            runtime.run()
            series.append(latency_series(runtime.last_requests)[1])
        np.testing.assert_array_equal(series[0][0], series[1][0])
        np.testing.assert_array_equal(series[0][1], series[1][1])

    def test_poisson_mode_runs(self):
        runtime = fig11_runtime(num_tasks=2, duration_s=5.0, seed=3)
        metrics = runtime.with_config(poisson=True).run()
        assert metrics.completed > 0

    def test_events_processed_positive(self, emulation):
        runtime, _ = emulation
        assert runtime.simulator.events_processed > 100

    def test_dispatcher_sleeps_through_idle_ticks(self, emulation):
        # 505 frames and one event per tick: 528 (1 033 while each window's
        # completion was an event too; a tick every 1 ms TTI, due or not,
        # made it 20 730)
        runtime, _ = emulation
        assert runtime.simulator.events_processed <= 600
