"""Integration tests: the small-scale evaluation (Figs. 6-8).

These assert the *qualitative relationships* the paper reports:
OffloaDNN's cost matches the optimum closely, its runtime is far lower,
admission equals the optimum, its inference compute usage does not
exceed the optimum's, and memory stays well under the budget.
"""

from __future__ import annotations

import pytest

from repro.core.heuristic import OffloaDNNSolver
from repro.core.objective import check_constraints, objective_value
from repro.core.optimal import OptimalSolver
from repro.core.tree import build_vector_tree
from repro.workloads.smallscale import small_scale_problem


@pytest.fixture(scope="module", params=[1, 2, 3])
def pair(request):
    problem = small_scale_problem(request.param, seed=0)
    heuristic = OffloaDNNSolver().solve(problem)
    optimal = OptimalSolver().solve(problem)
    return problem, heuristic, optimal


class TestSmallScaleAgainstOptimum:
    def test_both_feasible(self, pair):
        problem, heuristic, optimal = pair
        assert check_constraints(problem, heuristic).feasible
        assert check_constraints(problem, optimal).feasible

    def test_optimal_no_worse(self, pair):
        problem, heuristic, optimal = pair
        assert objective_value(problem, optimal) <= objective_value(
            problem, heuristic
        ) + 1e-9

    def test_heuristic_cost_close_to_optimum(self, pair):
        """Fig. 7-left: OffloaDNN matches the optimum very closely
        (within 15% here; the paper shows a negligible gap)."""
        problem, heuristic, optimal = pair
        h = objective_value(problem, heuristic)
        o = objective_value(problem, optimal)
        assert h <= o * 1.15 + 1e-9

    def test_same_weighted_admission_as_optimum(self, pair):
        """Fig. 8-left: identical priority-weighted admission."""
        problem, heuristic, optimal = pair
        assert heuristic.weighted_admission_ratio == pytest.approx(
            optimal.weighted_admission_ratio, abs=1e-6
        )

    def test_same_rb_allocation_as_optimum(self, pair):
        """Fig. 8-center-left: same normalized RB usage."""
        problem, heuristic, optimal = pair
        assert heuristic.total_radio_blocks == pytest.approx(
            optimal.total_radio_blocks, rel=0.05
        )

    def test_inference_compute_not_above_optimum(self, pair):
        """Fig. 8-right: the compute-time clique ordering makes
        OffloaDNN's inference usage <= the optimum's."""
        problem, heuristic, optimal = pair
        assert (
            heuristic.total_inference_compute_s
            <= optimal.total_inference_compute_s + 1e-9
        )

    def test_memory_within_budget_and_moderate(self, pair):
        """Fig. 7-right: memory well below the 8 GB budget (<= 64% in
        the paper)."""
        problem, heuristic, optimal = pair
        assert heuristic.total_memory_gb <= 0.64 * problem.budgets.memory_gb
        assert optimal.total_memory_gb <= heuristic.total_memory_gb + 1e-9


class TestSmallScaleAdmission:
    def test_all_five_tasks_admitted_fully(self):
        """The small scenario has capacity for every task: weighted
        admission equals the priority sum."""
        problem = small_scale_problem(5, seed=0)
        solution = OffloaDNNSolver().solve(problem)
        expected = sum(t.priority for t in problem.tasks)
        assert solution.weighted_admission_ratio == pytest.approx(expected)

    def test_highest_accuracy_task_gets_accurate_path(self):
        """Task 1 requires 0.9 top-1, which only the full fine-tuned
        configurations reach."""
        problem = small_scale_problem(5, seed=0)
        solution = OffloaDNNSolver().solve(problem)
        path = solution.assignment(1).path
        assert path is not None
        assert path.effective_accuracy >= 0.9

    def test_runtime_heuristic_much_faster_for_multiple_tasks(self):
        """Fig. 6: already at T >= 2 the optimum is at least an order of
        magnitude slower (the tree has 15^T branches)."""
        problem = small_scale_problem(3, seed=0)
        heuristic = OffloaDNNSolver().solve(problem)
        optimal = OptimalSolver().solve(problem)
        assert optimal.solve_time_s > 10 * heuristic.solve_time_s

    def test_tree_growth_is_exponential(self):
        sizes = [
            build_vector_tree(small_scale_problem(t, seed=0)).num_branches()
            for t in (1, 2, 3)
        ]
        assert sizes[1] > 5 * sizes[0]
        assert sizes[2] > 5 * sizes[1]
