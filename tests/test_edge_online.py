"""Tests for the online arrival/departure study."""

from __future__ import annotations

import pytest

from repro.core.heuristic import OffloaDNNSolver
from repro.edge.online import OnlineStudy


@pytest.fixture(scope="module")
def light_trace():
    return OnlineStudy(
        arrival_rate_per_s=0.2, mean_lifetime_s=20.0, horizon_s=60.0, seed=1
    ).run()


class TestOnlineStudy:
    def test_arrivals_accounted(self, light_trace):
        assert light_trace.arrivals == light_trace.admissions + light_trace.rejections
        assert light_trace.arrivals > 0

    def test_all_admitted_tasks_eventually_depart(self, light_trace):
        assert light_trace.departures == light_trace.admissions
        final = light_trace.snapshots[-1]
        assert final.active_tasks == 0

    def test_memory_returns_to_zero(self, light_trace):
        final = light_trace.snapshots[-1]
        assert final.deployed_memory_gb == pytest.approx(0.0, abs=1e-9)
        assert final.active_blocks == 0
        assert final.allocated_rbs == 0

    def test_light_load_admits_everything(self, light_trace):
        """~4 concurrent tasks on a 50-RB, 8-GB edge: no rejections."""
        assert light_trace.admission_fraction == pytest.approx(1.0)

    def test_memory_tracks_active_tasks(self, light_trace):
        for snapshot in light_trace.snapshots:
            if snapshot.active_tasks == 0:
                assert snapshot.deployed_memory_gb == pytest.approx(0.0, abs=1e-9)
            else:
                assert snapshot.deployed_memory_gb > 0

    def test_heavy_load_rejects_some(self):
        trace = OnlineStudy(
            arrival_rate_per_s=2.0, mean_lifetime_s=60.0, horizon_s=60.0, seed=2
        ).run()
        # offered load ~120 concurrent-task-equivalents on a 50-RB pool
        assert trace.rejections > 0
        assert 0.0 < trace.admission_fraction < 1.0

    def test_rb_pool_never_exceeded(self):
        study = OnlineStudy(
            arrival_rate_per_s=2.0, mean_lifetime_s=60.0, horizon_s=40.0, seed=3
        )
        trace = study.run()
        assert all(s.allocated_rbs <= study.radio_blocks for s in trace.snapshots)

    def test_deterministic_given_seed(self):
        a = OnlineStudy(arrival_rate_per_s=0.3, horizon_s=30.0, seed=9).run()
        b = OnlineStudy(arrival_rate_per_s=0.3, horizon_s=30.0, seed=9).run()
        assert [s.task_id for s in a.snapshots] == [s.task_id for s in b.snapshots]
        assert a.admissions == b.admissions

    def test_series_extraction(self, light_trace):
        times, values = light_trace.series("active_tasks")
        assert len(times) == len(values) == len(light_trace.snapshots)
        assert times == sorted(times)

    def test_validation(self):
        with pytest.raises(ValueError):
            OnlineStudy(arrival_rate_per_s=0.0)
        with pytest.raises(ValueError):
            OnlineStudy(horizon_s=0.0)

    def test_warm_start_trace_identical(self):
        """A solver carrying a clique memo across admission rounds produces
        the exact same trace as cold solves — clique reuse is a performance
        lever, not a policy one."""

        class MemoSolver:
            def __init__(self) -> None:
                self.base, self.memo, self.solves = OffloaDNNSolver(), {}, 0

            def solve(self, problem):
                self.solves += 1
                return self.base.solve(problem, memo=self.memo)

        kwargs = dict(
            arrival_rate_per_s=1.0, mean_lifetime_s=30.0, horizon_s=45.0,
            seed=7,
        )
        cold = OnlineStudy(**kwargs).run()
        solver = MemoSolver()
        warm = OnlineStudy(**kwargs).run(solver=solver)
        assert [
            (s.task_id, s.event, s.admitted, s.allocated_rbs,
             s.deployed_memory_gb)
            for s in cold.snapshots
        ] == [
            (s.task_id, s.event, s.admitted, s.allocated_rbs,
             s.deployed_memory_gb)
            for s in warm.snapshots
        ]
        assert cold.admissions == warm.admissions
        assert cold.rejections == warm.rejections
        # every arrival is a new task id with its own catalog, so every solve
        # was a miss (why the controller itself carries no memo)
        assert len(solver.memo) == solver.solves > 0

    def test_exhaustion_wave_recovers(self):
        """An overload burst saturates the pools (zero-headroom solves)
        without crashing, and capacity frees up again after departures."""
        trace = OnlineStudy(
            arrival_rate_per_s=4.0, mean_lifetime_s=20.0, horizon_s=30.0,
            memory_gb=2.0, compute_s=0.5, radio_blocks=12, seed=11,
        ).run()
        assert trace.rejections > 0
        # the run completed through saturation and drained cleanly
        final = trace.snapshots[-1]
        assert final.active_tasks == 0
        assert final.allocated_rbs == 0
