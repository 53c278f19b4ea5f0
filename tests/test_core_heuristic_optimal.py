"""Unit tests for the OffloaDNN heuristic and the optimal solver."""

from __future__ import annotations

import pytest

from repro.core.catalog import Catalog
from repro.core.heuristic import OffloaDNNSolver
from repro.core.objective import check_constraints, objective_value
from repro.core.optimal import OptimalSolver
from repro.core.problem import Budgets, DOTProblem, RadioModel
from tests.conftest import make_block, make_path, make_task


def _memory_tight_problem():
    """Two tasks; the compute-cheapest paths together exceed memory, so
    the solvers must exploit the shared alternative."""
    t1 = make_task(1, priority=0.9, min_accuracy=0.7)
    t2 = make_task(2, priority=0.8, min_accuracy=0.7)
    shared = make_block("shared", compute_time_s=0.02, memory_gb=2.0)
    catalog = Catalog()
    for task in (t1, t2):
        i = task.task_id
        dedicated = make_block(f"fast{i}", compute_time_s=0.005, memory_gb=3.0)
        head = make_block(f"head{i}", compute_time_s=0.004, memory_gb=0.5)
        catalog.add_path(make_path(task, f"t{i}-fast", (dedicated,), accuracy=0.9))
        catalog.add_path(make_path(task, f"t{i}-shared", (shared, head), accuracy=0.9))
    budgets = Budgets(
        compute_time_s=2.5, training_budget_s=1000.0, memory_gb=5.0, radio_blocks=50
    )
    return DOTProblem(tasks=(t1, t2), catalog=catalog, budgets=budgets,
                      radio=RadioModel(default_bits_per_rb=350_000.0))


class TestOffloaDNNSolver:
    def test_picks_min_compute_path(self, tiny_problem):
        solution = OffloaDNNSolver().solve(tiny_problem)
        for task in tiny_problem.tasks:
            assignment = solution.assignment(task)
            assert assignment.path is not None
            assert assignment.path.path_id.endswith("cheap")

    def test_all_admitted_when_abundant(self, tiny_problem):
        solution = OffloaDNNSolver().solve(tiny_problem)
        assert solution.admitted_task_count == 3
        assert all(a.admission_ratio == 1.0 for a in solution.assignments.values())

    def test_solution_feasible(self, tiny_problem):
        solution = OffloaDNNSolver().solve(tiny_problem)
        assert check_constraints(tiny_problem, solution).feasible

    def test_memory_pressure_falls_back_to_sharing(self):
        problem = _memory_tight_problem()
        solution = OffloaDNNSolver().solve(problem)
        # fast1 (3 GB) fits; fast2 would need 6 GB total, so task 2 must
        # use the shared path (2.0 + 0.5 = 2.5 -> total 5.5 > 5? no:
        # fast1 3.0 + shared 2.0 + head2 0.5 = 5.5 > 5 -> task1 also
        # switches only if needed; verify feasibility instead of exact
        # layout, plus that the memory budget holds.
        assert solution.total_memory_gb <= problem.budgets.memory_gb + 1e-9
        assert check_constraints(problem, solution).feasible

    def test_task_without_feasible_path_rejected(self):
        task = make_task(1, min_accuracy=0.99)
        catalog = Catalog()
        catalog.add_path(make_path(task, "p", (make_block("b"),), accuracy=0.5))
        problem = DOTProblem(
            tasks=(task,),
            catalog=catalog,
            budgets=Budgets(2.5, 1000.0, 8.0, 50),
            radio=RadioModel(default_bits_per_rb=350_000.0),
        )
        solution = OffloaDNNSolver().solve(problem)
        assert solution.assignment(task).admission_ratio == 0.0
        assert solution.assignment(task).path is None

    def test_solve_time_recorded(self, tiny_problem):
        solution = OffloaDNNSolver().solve(tiny_problem)
        assert solution.solve_time_s > 0
        assert solution.solver_name == "OffloaDNN"


class TestOptimalSolver:
    def test_never_worse_than_heuristic(self, tiny_problem):
        heuristic = OffloaDNNSolver().solve(tiny_problem)
        optimal = OptimalSolver().solve(tiny_problem)
        assert objective_value(tiny_problem, optimal) <= objective_value(
            tiny_problem, heuristic
        ) + 1e-9

    def test_optimal_feasible(self, tiny_problem):
        optimal = OptimalSolver().solve(tiny_problem)
        assert check_constraints(tiny_problem, optimal).feasible

    def test_branches_explored_counted(self, tiny_problem):
        optimal = OptimalSolver().solve(tiny_problem)
        assert optimal.branches_explored == 8  # 2^3 feasible branches

    def test_memory_pruning_reduces_branches(self):
        problem = _memory_tight_problem()
        optimal = OptimalSolver().solve(problem)
        # 4 combinations exist; at least one (fast1+fast2 = 6 GB) pruned
        assert optimal.branches_explored < 4
        assert check_constraints(problem, optimal).feasible

    def test_max_branches_guard(self, tiny_problem):
        with pytest.raises(ValueError, match="max_branches"):
            OptimalSolver(max_branches=2).solve(tiny_problem)

    def test_solver_name(self, tiny_problem):
        assert OptimalSolver().solve(tiny_problem).solver_name == "Optimum"

    def test_all_memory_infeasible_rejects_everything(self):
        task = make_task(1)
        catalog = Catalog()
        catalog.add_path(
            make_path(task, "p", (make_block("huge", memory_gb=100.0),), accuracy=0.9)
        )
        problem = DOTProblem(
            tasks=(task,),
            catalog=catalog,
            budgets=Budgets(2.5, 1000.0, 8.0, 50),
            radio=RadioModel(default_bits_per_rb=350_000.0),
        )
        solution = OptimalSolver().solve(problem)
        assert solution.assignment(task).admission_ratio == 0.0
