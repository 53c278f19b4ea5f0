"""Tests for the OffloaDNN solver options (slice margin) and its first leaf."""

from __future__ import annotations

import pytest

from repro.core.heuristic import OffloaDNNSolver, allocate
from repro.core.objective import check_constraints
from repro.core.tree import branches, build_vector_tree, first_branch
from repro.workloads.largescale import RequestRate, large_scale_problem


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
        from repro.core.latency import end_to_end_latency

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


class TestBranchEnumeration:
    def test_first_leaf_equals_first_branch(self, tiny_problem):
        """The first leaf ``branches`` yields is ``first_branch``'s, so the
        enumeration ``OptimalSolver`` compares starts at the heuristic's
        solution; the heuristic itself compares no leaves."""
        from tests.test_core_vectorized import random_problem, solution_key

        for problem in [tiny_problem] + [random_problem(seed) for seed in range(6)]:
            tree = build_vector_tree(problem)
            first = first_branch(tree, problem.budgets)
            leaf = next(branches(tree, problem.budgets))
            assert leaf == first
            solution = OffloaDNNSolver().solve(problem)
            assert solution_key(solution) == solution_key(allocate(tree, leaf))
            assert solution.branches_explored == 0
