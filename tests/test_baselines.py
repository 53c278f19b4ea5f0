"""Unit tests for SEM-O-RAN and the auxiliary baselines."""

from __future__ import annotations

import pytest

from repro.baselines.greedy import GreedyNoSharingSolver
from repro.baselines.random_policy import RandomPathSolver
from repro.baselines.semoran import SemORANSolver
from repro.core.catalog import Catalog
from repro.core.heuristic import OffloaDNNSolver
from repro.core.objective import check_constraints
from repro.core.problem import Budgets, DOTProblem, RadioModel
from repro.core.task import QualityLevel, Task
from repro.workloads.largescale import RequestRate, large_scale_problem
from tests.conftest import make_block, make_path, make_task


class TestSemORANSolver:
    def test_binary_admission_only(self):
        problem = large_scale_problem(RequestRate.HIGH)
        solution = SemORANSolver().solve(problem)
        ratios = {a.admission_ratio for a in solution.assignments.values()}
        assert ratios <= {0.0, 1.0}

    def test_no_block_sharing(self):
        problem = large_scale_problem(RequestRate.LOW)
        solution = SemORANSolver().solve(problem)
        block_ids = set()
        for assignment in solution.admitted_assignments():
            ids = assignment.path.block_ids()
            assert not (ids & block_ids), "blocks shared between tasks"
            block_ids |= ids

    def test_memory_counted_in_full(self):
        problem = large_scale_problem(RequestRate.LOW)
        solution = SemORANSolver().solve(problem)
        # each dedicated full DNN ~1 GB; admitted count * 1 GB expected
        admitted = solution.admitted_task_count
        assert solution.total_memory_gb == pytest.approx(admitted * 1.0, rel=0.1)

    def test_admits_by_value_order(self):
        problem = large_scale_problem(RequestRate.LOW)
        solution = SemORANSolver().solve(problem)
        admitted_ids = {
            a.task.task_id for a in solution.admitted_assignments()
        }
        # greedy by priority: the admitted set is a prefix of the
        # priority order (task ids 1..k)
        assert admitted_ids == set(range(1, len(admitted_ids) + 1))

    def test_feasible(self):
        for rate in RequestRate:
            problem = large_scale_problem(rate)
            solution = SemORANSolver().solve(problem)
            report = check_constraints(problem, solution)
            assert report.feasible, report.violations

    def test_semantic_compression_picks_cheaper_quality(self):
        q_low = QualityLevel("low", 100_000.0, accuracy_factor=0.95)
        q_high = QualityLevel("high", 350_000.0, accuracy_factor=1.0)
        task = Task(
            task_id=1, name="t", method="cls", priority=0.9, request_rate=5.0,
            min_accuracy=0.7, max_latency_s=0.5, qualities=(q_low, q_high),
        )
        catalog = Catalog()
        catalog.add_path(make_path(task, "p", (make_block("b"),), accuracy=0.9))
        problem = DOTProblem(
            tasks=(task,), catalog=catalog,
            budgets=Budgets(2.5, 1000.0, 8.0, 50),
            radio=RadioModel(default_bits_per_rb=350_000.0),
        )
        solution = SemORANSolver().solve(problem)
        assignment = solution.assignment(task)
        # 0.9 * 0.95 = 0.855 >= 0.7, so the low-bits quality suffices
        assert assignment.path.quality.name == "low"

    def test_quality_respects_accuracy_requirement(self):
        q_low = QualityLevel("low", 100_000.0, accuracy_factor=0.5)
        q_high = QualityLevel("high", 350_000.0, accuracy_factor=1.0)
        task = Task(
            task_id=1, name="t", method="cls", priority=0.9, request_rate=5.0,
            min_accuracy=0.8, max_latency_s=0.5, qualities=(q_low, q_high),
        )
        catalog = Catalog()
        catalog.add_path(make_path(task, "p", (make_block("b"),), accuracy=0.9))
        problem = DOTProblem(
            tasks=(task,), catalog=catalog,
            budgets=Budgets(2.5, 1000.0, 8.0, 50),
            radio=RadioModel(default_bits_per_rb=350_000.0),
        )
        solution = SemORANSolver().solve(problem)
        assert solution.assignment(task).path.quality.name == "high"

    def test_leftover_rbs_spread(self):
        """The balanced allocation hands the admitted slices RBs beyond
        the minimum each was admitted at, within the pool."""
        problem = large_scale_problem(RequestRate.LOW)
        solver = SemORANSolver()
        spread = solver.solve(problem)
        tight = sum(
            solver._choose(problem, assignment.task)[1]
            for assignment in spread.admitted_assignments()
        )
        assert spread.total_radio_blocks > tight
        assert spread.total_radio_blocks <= problem.budgets.radio_blocks + 1e-9

    def test_admits_fewer_than_offloadnn(self):
        """The headline comparison: OffloaDNN admits more tasks."""
        for rate in RequestRate:
            problem = large_scale_problem(rate)
            semoran = SemORANSolver().solve(problem)
            offloadnn = OffloaDNNSolver().solve(problem)
            assert offloadnn.admitted_task_count > semoran.admitted_task_count


class TestGreedyNoSharing:
    def test_feasible_on_large_scale(self):
        problem = large_scale_problem(RequestRate.MEDIUM)
        solution = GreedyNoSharingSolver().solve(problem)
        assert check_constraints(problem, solution).feasible

    def test_uses_more_memory_than_offloadnn_with_sharing(self):
        """Ablation: removing sharing can only increase memory use."""
        problem = large_scale_problem(RequestRate.LOW)
        with_sharing = OffloaDNNSolver().solve(problem)
        without = GreedyNoSharingSolver().solve(problem)
        assert without.total_memory_gb >= with_sharing.total_memory_gb - 1e-9


class TestRandomPathSolver:
    def test_feasible(self, tiny_problem):
        solution = RandomPathSolver(seed=1).solve(tiny_problem)
        assert check_constraints(tiny_problem, solution).feasible

    def test_deterministic_given_seed(self, tiny_problem):
        a = RandomPathSolver(seed=3).solve(tiny_problem)
        b = RandomPathSolver(seed=3).solve(tiny_problem)
        for task in tiny_problem.tasks:
            assert (
                a.assignment(task).path.path_id == b.assignment(task).path.path_id
            )

    def test_no_worse_than_rejecting_everything(self, tiny_problem):
        solution = RandomPathSolver(seed=0).solve(tiny_problem)
        assert solution.admitted_task_count >= 1
