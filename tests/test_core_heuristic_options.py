"""Tests for the OffloaDNN solver options (margin, branch exploration)."""

from __future__ import annotations

import pytest

from repro.core.heuristic import OffloaDNNSolver, allocate
from repro.core.objective import check_constraints, objective_value
from repro.core.optimal import OptimalSolver
from repro.core.tree import branches, build_vector_tree, first_branch
from repro.workloads.largescale import RequestRate, large_scale_problem
from repro.workloads.smallscale import small_scale_problem


class TestSliceMargin:
    def test_margin_adds_rbs(self, tiny_problem):
        plain = OffloaDNNSolver().solve(tiny_problem)
        margined = OffloaDNNSolver(slice_margin_rbs=2).solve(tiny_problem)
        for task in tiny_problem.tasks:
            assert (
                margined.assignment(task).radio_blocks
                == plain.assignment(task).radio_blocks + 2
            )

    def test_margin_respects_pool(self):
        problem = large_scale_problem(RequestRate.MEDIUM)
        margined = OffloaDNNSolver(slice_margin_rbs=3).solve(problem)
        assert margined.total_radio_blocks <= problem.budgets.radio_blocks + 1e-9
        assert check_constraints(problem, margined).feasible

    def test_margin_never_reduces_admission(self, tiny_problem):
        plain = OffloaDNNSolver().solve(tiny_problem)
        margined = OffloaDNNSolver(slice_margin_rbs=5).solve(tiny_problem)
        assert (
            margined.weighted_admission_ratio
            == pytest.approx(plain.weighted_admission_ratio)
        )

    def test_negative_margin_rejected(self):
        with pytest.raises(ValueError):
            OffloaDNNSolver(slice_margin_rbs=-1)

    def test_margin_shrinks_latency(self, tiny_problem):
        from repro.core.objective import end_to_end_latency

        plain = OffloaDNNSolver().solve(tiny_problem)
        margined = OffloaDNNSolver(slice_margin_rbs=2).solve(tiny_problem)
        for task in tiny_problem.tasks:
            bits = tiny_problem.radio.bits_per_rb(task)
            l_plain = end_to_end_latency(
                plain.assignment(task).path, plain.assignment(task).radio_blocks, bits
            )
            l_margin = end_to_end_latency(
                margined.assignment(task).path,
                margined.assignment(task).radio_blocks,
                bits,
            )
            assert l_margin < l_plain


class TestExploreBranches:
    def test_invalid_count_rejected(self):
        with pytest.raises(ValueError):
            OffloaDNNSolver(explore_branches=0)

    def test_one_branch_equals_first_branch(self, tiny_problem):
        """The first leaf ``branches`` yields is ``first_branch``'s — what lets
        one generator serve ``explore_branches`` and ``OptimalSolver`` alike."""
        from tests.test_core_vectorized import random_problem, solution_key

        for problem in [tiny_problem] + [random_problem(seed) for seed in range(6)]:
            tree = build_vector_tree(problem)
            for ordering in ("compute", "memory", "accuracy"):
                first = first_branch(tree, problem.budgets, ordering)
                leaf = next(branches(tree, problem.budgets, ordering))
                assert leaf == first
                solver = OffloaDNNSolver(ordering=ordering)
                assert solution_key(solver.solve(problem)) == solution_key(
                    allocate(tree, leaf)
                )

    def test_more_branches_never_worse(self, tiny_problem):
        costs = []
        for k in (1, 4, 8):
            solution = OffloaDNNSolver(explore_branches=k).solve(tiny_problem)
            costs.append(objective_value(tiny_problem, solution))
        assert costs[0] >= costs[1] - 1e-12 >= costs[2] - 1e-12

    def test_all_branches_matches_optimum(self, tiny_problem):
        """Exploring every branch (8 here) must reach the optimum cost."""
        exhaustive = OffloaDNNSolver(explore_branches=100).solve(tiny_problem)
        optimal = OptimalSolver().solve(tiny_problem)
        assert objective_value(tiny_problem, exhaustive) == pytest.approx(
            objective_value(tiny_problem, optimal)
        )
        # both counts come from the one generator's leaves
        assert exhaustive.branches_explored == optimal.branches_explored == 8
        assert OffloaDNNSolver().solve(tiny_problem).branches_explored == 0

    def test_feasible_on_scenarios(self):
        problem = small_scale_problem(3, seed=0)
        solution = OffloaDNNSolver(explore_branches=5).solve(problem)
        assert check_constraints(problem, solution).feasible
