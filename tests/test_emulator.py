"""Unit tests for the DES substrates and the one-frame-per-job regime.

The simulator and the LTE cell are tested directly; what used to be the
emulator's own device / GPU / timeline classes is the serving runtime in
its Fig. 11 configuration, driven here on hand-built one-task deployments.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.catalog import Catalog
from repro.core.problem import Budgets, DOTProblem, RadioModel
from repro.emulator.lte import TTI_S, LteCell
from repro.emulator.simulator import Simulator
from repro.radio.slicing import SliceManager
from repro.serving import TaskServingMetrics, latency_series, moving_average
from tests.conftest import (
    make_block,
    make_path,
    make_request,
    make_task,
    serve_frame_per_job,
)


class TestSimulator:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(0.3, lambda: log.append("c"))
        sim.schedule(0.1, lambda: log.append("a"))
        sim.schedule(0.2, lambda: log.append("b"))
        sim.run()
        assert log == ["a", "b", "c"]

    def test_ties_broken_by_insertion_order(self):
        sim = Simulator()
        log = []
        sim.schedule(0.1, lambda: log.append(1))
        sim.schedule(0.1, lambda: log.append(2))
        sim.run()
        assert log == [1, 2]

    def test_run_until_stops(self):
        sim = Simulator()
        log = []
        sim.schedule(0.1, lambda: log.append(1))
        sim.schedule(0.5, lambda: log.append(2))
        sim.run_until(0.2)
        assert log == [1]
        assert sim.now == pytest.approx(0.2)

    def test_run_until_advances_clock_on_empty_queue(self):
        sim = Simulator()
        sim.run_until(3.5)
        assert sim.now == pytest.approx(3.5)
        assert sim.events_processed == 0
        # events scheduled after the jump land relative to the new now
        log = []
        sim.schedule(0.5, lambda: log.append(sim.now))
        sim.run()
        assert log == [pytest.approx(4.0)]

    def test_run_until_past_time_keeps_clock(self):
        sim = Simulator()
        sim.run_until(2.0)
        sim.run_until(1.0)
        assert sim.now == pytest.approx(2.0)

    def test_run_until_drained_queue_still_reaches_horizon(self):
        sim = Simulator()
        log = []
        sim.schedule(0.1, lambda: log.append(1))
        sim.run_until(5.0)
        assert log == [1]
        assert sim.now == pytest.approx(5.0)

    def test_cancelled_event_skipped(self):
        sim = Simulator()
        log = []
        event = sim.schedule(0.1, lambda: log.append(1))
        event.cancel()
        sim.run()
        assert log == []

    def test_callback_can_schedule_more(self):
        sim = Simulator()
        log = []

        def recur():
            log.append(sim.now)
            if len(log) < 3:
                sim.schedule(0.1, recur)

        sim.schedule(0.0, recur)
        sim.run()
        assert len(log) == 3
        assert log[-1] == pytest.approx(0.2)

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_at_fires_at_exactly_the_given_time(self):
        # the relative delay does not round-trip: 0.4 + (1.7 - 0.4) is
        # 1.6999999999999997, and the sleeping dispatcher must land on
        # its tick grid bit for bit
        assert 0.4 + (1.7 - 0.4) != 1.7
        sim = Simulator()
        sim.run_until(0.4)
        fired = []
        sim.schedule_at(1.7, lambda: fired.append(sim.now))
        sim.schedule_at(0.1, lambda: fired.append(sim.now))  # past: fires now
        sim.run()
        assert fired == [0.4, 1.7]

    @pytest.mark.parametrize("recycle", [False, True])
    def test_schedule_as_of_keeps_the_place_of_the_step_it_replaces(self, recycle):
        # a chain that skipped its idle steps arms its step for 2.0 as of
        # 1.0: among events due at 2.0 it fires after those scheduled
        # before 1.0, and before those scheduled at 1.0 (by later calls)
        # or after it, as a step scheduled at 1.0 would have
        sim = Simulator(recycle_events=recycle)
        log = []
        sim.schedule_as_of(1.0, 2.0, lambda: log.append("step"))
        for at in (1.5, 1.0, 0.5):
            sim.schedule_at(
                at, lambda at=at: sim.schedule_at(2.0, lambda: log.append(at))
            )
        sim.schedule_at(2.0, lambda: log.append(0.0))
        sim.run()
        assert log == [0.0, 0.5, "step", 1.0, 1.5]


class TestLteCell:
    def _cell(self, rbs: int = 5) -> LteCell:
        mgr = SliceManager(capacity_rbs=100)
        mgr.allocate(1, rbs, 350_000.0)
        return LteCell(slice_manager=mgr)

    def test_duration_tti_granular(self):
        cell = self._cell(rbs=5)
        # 350 kb over 1.75 Mbps = 200 ms = 200 TTIs exactly
        assert cell.transmission_duration(1, 350_000.0) == pytest.approx(0.2)

    def test_duration_rounds_up_to_tti(self):
        cell = self._cell(rbs=5)
        duration = cell.transmission_duration(1, 100.0)
        assert duration == TTI_S

    def test_fifo_queueing_on_slice(self):
        cell = self._cell(rbs=5)
        first = cell.enqueue_frame(1, 350_000.0, now=0.0)
        second = cell.enqueue_frame(1, 350_000.0, now=0.0)
        assert second == pytest.approx(first + 0.2)

    def test_idle_slice_starts_immediately(self):
        cell = self._cell(rbs=5)
        cell.enqueue_frame(1, 350_000.0, now=0.0)
        later = cell.enqueue_frame(1, 350_000.0, now=1.0)
        assert later == pytest.approx(1.2)

    def test_reset_clears_queues(self):
        cell = self._cell(rbs=5)
        cell.enqueue_frame(1, 350_000.0, now=0.0)
        cell.reset()
        assert cell.enqueue_frame(1, 350_000.0, now=0.0) == pytest.approx(0.2)


class TestMovingAverage:
    def test_window_one_identity(self):
        x = np.array([1.0, 5.0, 3.0])
        np.testing.assert_array_equal(moving_average(x, 1), x)

    def test_window_three(self):
        x = np.array([3.0, 6.0, 9.0, 12.0])
        np.testing.assert_allclose(moving_average(x, 3), [3.0, 4.5, 6.0, 9.0])

    def test_empty(self):
        assert len(moving_average(np.array([]), 3)) == 0

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            moving_average(np.array([1.0]), 0)


class TestLatencyTimeline:
    def _records(self):
        return [
            make_request(1, 1, 0.2, 0.5),
            make_request(1, 0, 0.0, 0.2),
            make_request(2, 2, 0.0, 0.1),
            make_request(1, 3, 0.4, float("nan")),  # never completed
        ]

    def test_grouping_and_series(self):
        series = latency_series(self._records(), window=1)
        assert set(series) == {1, 2}  # a task that completed nothing: no entry
        times, latencies = series[1]  # in completion order
        np.testing.assert_allclose(times, [0.2, 0.5])
        np.testing.assert_allclose(latencies, [0.2, 0.3])

    def test_max_and_mean(self):
        stats = TaskServingMetrics.from_requests(1, self._records()[:2])
        assert stats.latency.max_s == pytest.approx(0.3)
        assert stats.latency.mean_s == pytest.approx(0.25)
        assert np.isnan(TaskServingMetrics.from_requests(99, []).latency.max_s)

    def test_violation_fraction(self):
        _, smoothed = latency_series(self._records(), window=1)[1]
        assert (smoothed > 0.25).mean() == pytest.approx(0.5)
        assert not (smoothed > 1.0).any()


def _served(rate=5.0, compute_s=0.01, min_accuracy=0.7, duration_s=2.0):
    """One task (5 req/s on a rate-matched 5-RB slice: 0.2 s of airtime),
    one FIFO GPU, one frame per job, no result-return time — run."""
    task = make_task(1, request_rate=rate, max_latency_s=5.0, min_accuracy=min_accuracy)
    catalog = Catalog()
    catalog.add_path(make_path(task, "p", (make_block("b", compute_time_s=compute_s),)))
    problem = DOTProblem(
        tasks=(task,), catalog=catalog, budgets=Budgets(2.5, 1000.0, 8.0, 100),
        radio=RadioModel(default_bits_per_rb=350_000.0),
    )
    return serve_frame_per_job(problem, duration_s, result_return_s=0.0)[0]


class TestNodes:
    def test_frame_count_matches_rate(self):
        # frames at t = 0, 0.2, ..., 2.0 -> 11 frames, all served
        assert sum(r.completed for r in _served(rate=5.0).last_requests) == 11

    def test_latency_composition(self):
        (request,) = _served(duration_s=0.1).last_requests  # a single frame
        # 0.2 s uplink + at most one TTI to the next tick + 0.01 s compute
        assert request.uplink_done_at == pytest.approx(0.2)
        assert 0.21 - 1e-9 <= request.latency_s <= 0.21 + TTI_S + 1e-9

    def test_rejected_ticket_sends_nothing(self):
        runtime = _served(min_accuracy=0.95)  # above the only path's 0.9
        assert not runtime.tickets[1].admitted
        assert runtime.last_requests == []

    def test_server_fifo_queueing(self):
        # 0.3 s of compute per frame against a delivery every 0.2 s: the
        # one worker is the bottleneck and serves strictly back to back
        done = [r.completed_at for r in _served(compute_s=0.3, duration_s=1.0).last_requests]
        assert len(done) == 6
        np.testing.assert_allclose(np.diff(done), 0.3)
