"""Capstone integration: the complete pipeline, live end to end.

Profiles the DNN substrate for real (no static cost basis), builds a
DOT catalog from the measurements, solves with both the heuristic and
the optimum, drives the admitted configuration through the controller
and the serving runtime, and verifies the chain's invariants at every step —
the whole Fig. 4 loop with no canned numbers.
"""

from __future__ import annotations

import pytest

from repro.core.heuristic import OffloaDNNSolver
from repro.core.objective import check_constraints, objective_value
from repro.core.optimal import OptimalSolver
from repro.core.problem import Budgets, DOTProblem, RadioModel
from repro.core.serialize import problem_from_dict, problem_to_dict
from repro.core.task import QualityLevel, Task
from repro.dnn.repository import build_task_paths, profile_table_i
from repro.serving import latency_series
from tests.conftest import serve_frame_per_job


@pytest.fixture(scope="module")
def live_problem() -> DOTProblem:
    """A problem whose block costs come from live substrate profiling."""
    profiled = profile_table_i(width=16, input_size=16, repeats=2, seed=0)
    quality = QualityLevel("full", 350_000.0)
    tasks = tuple(
        Task(
            task_id=i,
            name=f"live-{i}",
            method="classification",
            priority=1.0 - 0.2 * (i - 1),
            request_rate=4.0,
            min_accuracy=0.55,
            max_latency_s=0.4,
            qualities=(quality,),
        )
        for i in (1, 2, 3)
    )
    from repro.core.catalog import Catalog

    catalog = Catalog()
    for task in tasks:
        # scale profiled CPU costs into edge-server magnitudes
        for path in build_task_paths(
            task, profiled, quality, memory_scale=50.0, compute_scale=1.0
        ):
            catalog.add_path(path)
    return DOTProblem(
        tasks=tasks,
        catalog=catalog,
        budgets=Budgets(
            compute_time_s=2.5, training_budget_s=1000.0, memory_gb=8.0,
            radio_blocks=100,
        ),
        radio=RadioModel(default_bits_per_rb=350_000.0),
    )


class TestFullStack:
    def test_catalog_built_from_measurements(self, live_problem):
        blocks = live_problem.catalog.all_blocks()
        assert all(b.compute_time_s > 0 for b in blocks.values())
        shared = [b for b in blocks.values() if b.block_id.startswith("base:")]
        assert len(shared) == 3  # g1..g3 of the shared trunk

    def test_heuristic_and_optimum_agree_on_admission(self, live_problem):
        heuristic = OffloaDNNSolver().solve(live_problem)
        optimal = OptimalSolver().solve(live_problem)
        assert check_constraints(live_problem, heuristic).feasible
        assert check_constraints(live_problem, optimal).feasible
        assert heuristic.weighted_admission_ratio == pytest.approx(
            optimal.weighted_admission_ratio, abs=1e-6
        )
        assert objective_value(live_problem, optimal) <= objective_value(
            live_problem, heuristic
        ) + 1e-9

    def test_emulation_respects_live_costs(self, live_problem):
        """The runtime's compute times come straight from the profiled
        paths; the run must stay within every admitted task's limit."""
        runtime, _ = serve_frame_per_job(live_problem, 6.0, slice_margin_rbs=1)
        series = latency_series(runtime.last_requests)
        admitted = [t for t in runtime.tickets.values() if t.admitted]
        assert admitted
        for ticket in admitted:
            _, smoothed = series[ticket.task_id]
            assert len(smoothed) > 10
            assert (smoothed <= live_problem.task(ticket.task_id).max_latency_s).all()
        assert all(r.completed and not r.missed_deadline for r in runtime.last_requests)

    def test_serialization_survives_the_pipeline(self, live_problem):
        """Live-profiled problems round-trip through JSON and solve to
        the same decisions."""
        restored = problem_from_dict(problem_to_dict(live_problem))
        a = OffloaDNNSolver().solve(live_problem)
        b = OffloaDNNSolver().solve(restored)
        for task in live_problem.tasks:
            assert (
                a.assignment(task).path.path_id == b.assignment(task).path.path_id
            )

    def test_profiled_costs_propagate_to_latency(self, live_problem):
        """End-to-end latency decomposes into the transmission time
        implied by the slice plus the profiled compute time: a request's
        execute phase is exactly its path's ``Σ c(s)``."""
        runtime, _ = serve_frame_per_job(live_problem, 4.0, slice_margin_rbs=1, seed=1)
        assert runtime.last_requests
        return_s = runtime.config.result_return_s
        for r in runtime.last_requests:
            executed = r.completed_at - return_s - r.started_at
            assert executed == pytest.approx(r.path.compute_time_s, abs=1e-9)
            assert r.latency_s >= (r.uplink_done_at - r.created_at) + executed
