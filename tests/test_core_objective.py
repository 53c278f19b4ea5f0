"""Unit tests for the Eq. (1a) objective and (1b)-(1g) constraint checks."""

from __future__ import annotations

import pytest

from repro.core.heuristic import OffloaDNNSolver
from repro.core.objective import check_constraints, objective_breakdown, objective_value
from repro.core.solution import Assignment, DOTSolution
from tests.conftest import make_block, make_path, make_task


class TestObjective:
    def test_full_rejection_cost(self, tiny_problem):
        solution = DOTSolution()
        for task in tiny_problem.tasks:
            solution.assignments[task.task_id] = Assignment(
                task=task, path=None, admission_ratio=0.0, radio_blocks=0
            )
        breakdown = objective_breakdown(tiny_problem, solution)
        assert breakdown.rejection == pytest.approx(sum(t.priority for t in tiny_problem.tasks))
        assert breakdown.training == 0.0
        assert breakdown.radio == 0.0
        assert breakdown.inference == 0.0
        assert objective_value(tiny_problem, solution) == pytest.approx(
            tiny_problem.alpha * breakdown.rejection
        )

    def test_admission_reduces_rejection_term(self, tiny_problem):
        solution = OffloaDNNSolver().solve(tiny_problem)
        breakdown = objective_breakdown(tiny_problem, solution)
        assert breakdown.rejection == pytest.approx(0.0, abs=1e-9)
        assert breakdown.radio > 0.0
        assert breakdown.inference > 0.0

    def test_breakdown_total_matches_value(self, tiny_problem):
        solution = OffloaDNNSolver().solve(tiny_problem)
        breakdown = objective_breakdown(tiny_problem, solution)
        assert breakdown.total == pytest.approx(objective_value(tiny_problem, solution))

    def test_alpha_weighting(self, tiny_problem):
        solution = OffloaDNNSolver().solve(tiny_problem)
        breakdown = objective_breakdown(tiny_problem, solution)
        manual = tiny_problem.alpha * breakdown.rejection + (
            1 - tiny_problem.alpha
        ) * breakdown.resource
        assert breakdown.total == pytest.approx(manual)


class TestConstraintChecks:
    def test_feasible_solution_passes(self, tiny_problem):
        solution = OffloaDNNSolver().solve(tiny_problem)
        report = check_constraints(tiny_problem, solution)
        assert report.feasible, report.violations

    def test_memory_violation_detected(self, tiny_problem):
        task = tiny_problem.tasks[0]
        big = make_block("huge", memory_gb=100.0)
        path = make_path(task, "huge-path", (big,), accuracy=0.99)
        solution = DOTSolution()
        solution.assignments[task.task_id] = Assignment(
            task=task, path=path, admission_ratio=1.0, radio_blocks=10
        )
        for other in tiny_problem.tasks[1:]:
            solution.assignments[other.task_id] = Assignment(
                task=other, path=None, admission_ratio=0.0, radio_blocks=0
            )
        report = check_constraints(tiny_problem, solution)
        assert any("(1b)" in v for v in report.violations)

    def test_rate_violation_detected(self, tiny_problem):
        task = tiny_problem.tasks[0]
        path = tiny_problem.catalog.paths_for(task)[0]
        solution = DOTSolution()
        solution.assignments[task.task_id] = Assignment(
            task=task, path=path, admission_ratio=1.0, radio_blocks=1  # too few
        )
        for other in tiny_problem.tasks[1:]:
            solution.assignments[other.task_id] = Assignment(
                task=other, path=None, admission_ratio=0.0, radio_blocks=0
            )
        report = check_constraints(tiny_problem, solution)
        assert any("(1e)" in v for v in report.violations)

    def test_accuracy_violation_detected(self, tiny_problem):
        task = tiny_problem.tasks[0]  # requires 0.8
        low = make_path(task, "low-acc", (make_block("weak"),), accuracy=0.5)
        solution = DOTSolution()
        solution.assignments[task.task_id] = Assignment(
            task=task, path=low, admission_ratio=1.0, radio_blocks=40
        )
        for other in tiny_problem.tasks[1:]:
            solution.assignments[other.task_id] = Assignment(
                task=other, path=None, admission_ratio=0.0, radio_blocks=0
            )
        report = check_constraints(tiny_problem, solution)
        assert any("(1f)" in v for v in report.violations)

    def test_latency_violation_detected(self, tiny_problem):
        task = tiny_problem.tasks[0]  # limit 0.3 s
        slow = make_path(
            task, "slow", (make_block("slow-block", compute_time_s=0.5),), accuracy=0.9
        )
        solution = DOTSolution()
        solution.assignments[task.task_id] = Assignment(
            task=task, path=slow, admission_ratio=1.0, radio_blocks=40
        )
        for other in tiny_problem.tasks[1:]:
            solution.assignments[other.task_id] = Assignment(
                task=other, path=None, admission_ratio=0.0, radio_blocks=0
            )
        report = check_constraints(tiny_problem, solution)
        assert any("(1g)" in v for v in report.violations)

    def test_missing_assignment_detected(self, tiny_problem):
        solution = DOTSolution()
        report = check_constraints(tiny_problem, solution)
        assert not report.feasible
        assert any("without an assignment" in v for v in report.violations)
