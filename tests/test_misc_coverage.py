"""Focused tests for smaller behaviours not covered elsewhere."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.catalog import Catalog
from repro.core.problem import Budgets, DOTProblem, RadioModel
from repro.core.objective import objective_breakdown
from repro.core.subproblem import BranchAllocation, BranchItem, solve_branch
from repro.core.task import QualityLevel
from repro.core.tree import build_vector_tree
from repro.emulator.lte import HarqConfig, LteCell
from repro.workloads.smallscale import small_scale_problem
from tests.conftest import make_block, make_path, make_task


class TestBranchAllocationValidation:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            BranchAllocation(admission=[1.0], radio_blocks=[1, 2])


class TestPerTaskRadioRates:
    def test_weaker_channel_needs_more_rbs(self):
        """Two identical tasks with different B(σ): the weaker link's
        slice must be larger for the same rate."""
        quality = QualityLevel("full", 350_000.0)
        strong = make_task(1, quality=quality)
        weak = make_task(2, quality=quality)
        items = [
            BranchItem(
                task=strong,
                path=make_path(strong, "p1", (make_block("b1", compute_time_s=0.005),)),
                bits_per_rb=350_000.0,
            ),
            BranchItem(
                task=weak,
                path=make_path(weak, "p2", (make_block("b2", compute_time_s=0.005),)),
                bits_per_rb=175_000.0,  # half the per-RB capacity
            ),
        ]
        budgets = Budgets(compute_time_s=2.5, training_budget_s=1000.0,
                          memory_gb=8.0, radio_blocks=50)
        allocation = solve_branch(items, budgets)
        assert allocation.admission == [1.0, 1.0]
        assert allocation.radio_blocks[1] >= 2 * allocation.radio_blocks[0] - 1

    def test_radio_model_feeds_tree_vertices(self):
        quality = QualityLevel("full", 350_000.0)
        task = make_task(1, quality=quality)
        catalog = Catalog()
        catalog.add_path(make_path(task, "p", (make_block("b"),), accuracy=0.9))
        problem = DOTProblem(
            tasks=(task,),
            catalog=catalog,
            budgets=Budgets(2.5, 1000.0, 8.0, 50),
            radio=RadioModel(
                default_bits_per_rb=350_000.0, per_task_bits_per_rb={1: 999_000.0}
            ),
        )
        (vertex,) = build_vector_tree(problem).cliques[0].items(50)
        assert vertex.bits_per_rb == 999_000.0


class TestTreeInspection:
    def test_tasks_without_options_listed(self):
        task = make_task(1, min_accuracy=0.99)
        catalog = Catalog()
        catalog.add_path(make_path(task, "p", (make_block("b"),), accuracy=0.5))
        problem = DOTProblem(
            tasks=(task,), catalog=catalog, budgets=Budgets(2.5, 1000.0, 8.0, 50),
            radio=RadioModel(default_bits_per_rb=350_000.0),
        )
        tree = build_vector_tree(problem)
        assert tree.tasks_without_options() == [task]

    def test_clique_len(self, tiny_problem):
        tree = build_vector_tree(tiny_problem)
        assert all(len(clique) == 2 for clique in tree.cliques)


class TestObjectiveBreakdownResource:
    def test_resource_is_sum_of_non_rejection_terms(self, tiny_problem):
        from repro.core.heuristic import OffloaDNNSolver

        solution = OffloaDNNSolver().solve(tiny_problem)
        breakdown = objective_breakdown(tiny_problem, solution)
        assert breakdown.resource == pytest.approx(
            breakdown.training + breakdown.radio + breakdown.inference
        )


class TestHarqEndToEnd:
    def test_harq_inflates_scenario_latency(self):
        """10% TTI errors on an admitted deployment's slices: mean uplink +
        compute latency rises by roughly the expected HARQ overhead (~11%
        of the airtime).  The wave engine refuses a HARQ cell, so frames
        are replayed on the cell itself at the granted rates."""
        from repro.core.heuristic import OffloaDNNSolver
        from repro.serving import ServingRuntime

        runtime = ServingRuntime.from_problem(
            small_scale_problem(2, seed=0), solver=OffloaDNNSolver(slice_margin_rbs=1)
        )

        def run(harq):
            cell = LteCell(slice_manager=runtime.slice_manager, harq=harq)
            latencies = []
            for task in runtime.problem.tasks:
                path = runtime.solution.assignment(task).path
                rate = runtime.tickets[task.task_id].granted_rate
                for created in np.arange(0.0, 5.0, 1.0 / rate):
                    delivered = cell.enqueue_frame(
                        task.task_id, path.bits_per_image, float(created)
                    )
                    latencies.append(delivered - created + path.compute_time_s)
            return np.mean(latencies)

        clean = run(None)
        noisy = run(HarqConfig(tti_error_rate=0.1, seed=1))
        assert noisy > clean
        assert noisy < 1.5 * clean  # bounded inflation, no runaway queue
