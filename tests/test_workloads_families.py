"""Tests for multi-architecture DNN families in the workloads."""

from __future__ import annotations

import pytest

from repro.core.heuristic import OffloaDNNSolver
from repro.core.objective import check_constraints
from repro.core.problem import Budgets, DOTProblem, RadioModel
from repro.workloads.generator import DNNFamily, ScenarioCatalogBuilder
from tests.conftest import make_task


#: a second architecture declared by its cost scales relative to ResNet-18
#: (MobileNetV2: lighter in compute and memory, a few points less accurate)
MOBILENET = DNNFamily(
    "mnv2", compute_scale=0.4, memory_scale=0.3, accuracy_offset=-0.03
)


class TestMixedArchitectureCatalog:
    def _problem(self):
        tasks = tuple(
            make_task(i, priority=0.9 - 0.2 * i, min_accuracy=0.75) for i in range(3)
        )
        builder = ScenarioCatalogBuilder(
            families=(DNNFamily("rn18"), MOBILENET), seed=0
        )
        catalog = builder.build(tasks, tasks[0].qualities[0])
        return DOTProblem(
            tasks=tasks,
            catalog=catalog,
            budgets=Budgets(compute_time_s=2.5, training_budget_s=1000.0,
                            memory_gb=8.0, radio_blocks=50),
            radio=RadioModel(default_bits_per_rb=350_000.0),
        )

    def test_twenty_paths_per_task(self):
        problem = self._problem()
        assert len(problem.catalog.paths_for(0)) == 20  # 2 families x 10 configs

    def test_families_do_not_share_blocks(self):
        problem = self._problem()
        blocks = problem.catalog.all_blocks()
        rn_shared = {b for b in blocks if b.startswith("rn18:base:")}
        mn_shared = {b for b in blocks if b.startswith("mnv2:base:")}
        assert len(rn_shared) == 3
        assert len(mn_shared) == 3
        assert not rn_shared & mn_shared

    def test_solver_handles_mixed_catalog(self):
        problem = self._problem()
        solution = OffloaDNNSolver().solve(problem)
        assert check_constraints(problem, solution).feasible
        assert solution.admitted_task_count == 3


class TestHeuristicOrderingOptions:
    def test_invalid_ordering_rejected(self):
        with pytest.raises(ValueError, match="unknown ordering"):
            OffloaDNNSolver(ordering="alphabetical")

    def test_orderings_produce_feasible_solutions(self, tiny_problem):
        for ordering in ("compute", "memory", "accuracy"):
            solution = OffloaDNNSolver(ordering=ordering).solve(tiny_problem)
            assert check_constraints(tiny_problem, solution).feasible

    def test_accuracy_ordering_picks_richest_path(self, tiny_problem):
        solution = OffloaDNNSolver(ordering="accuracy").solve(tiny_problem)
        for task in tiny_problem.tasks:
            assert solution.assignment(task).path.path_id.endswith("rich")

    def test_compute_ordering_minimizes_inference(self, tiny_problem):
        compute = OffloaDNNSolver(ordering="compute").solve(tiny_problem)
        accuracy = OffloaDNNSolver(ordering="accuracy").solve(tiny_problem)
        assert (
            compute.total_inference_compute_s <= accuracy.total_inference_compute_s
        )
