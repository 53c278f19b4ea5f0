"""Unit tests for DOT problem instances and solutions."""

from __future__ import annotations

import pytest

from repro.core.catalog import Catalog
from repro.core.problem import Budgets, DOTProblem, RadioModel
from repro.core.solution import Assignment, DOTSolution
from tests.conftest import make_block, make_path, make_task


class TestBudgets:
    def test_valid(self):
        Budgets(compute_time_s=1.0, training_budget_s=1.0, memory_gb=1.0, radio_blocks=1)

    def test_zero_headroom_is_valid(self):
        """Zero compute/memory/radio models an exhausted platform (the
        online churn case); only the training normalizer must stay > 0."""
        Budgets(
            compute_time_s=0.0, training_budget_s=1.0, memory_gb=0.0,
            radio_blocks=0,
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"compute_time_s": -1.0},
            {"training_budget_s": 0.0},
            {"training_budget_s": -1.0},
            {"memory_gb": -1.0},
            {"radio_blocks": -1},
        ],
    )
    def test_invalid(self, kwargs):
        base = dict(compute_time_s=1.0, training_budget_s=1.0, memory_gb=1.0, radio_blocks=1)
        base.update(kwargs)
        with pytest.raises(ValueError):
            Budgets(**base)


class TestRadioModel:
    def test_default_bits(self):
        model = RadioModel(default_bits_per_rb=100.0)
        assert model.bits_per_rb(make_task(1)) == 100.0

    def test_per_task_override(self):
        model = RadioModel(default_bits_per_rb=100.0, per_task_bits_per_rb={1: 200.0})
        assert model.bits_per_rb(make_task(1)) == 200.0
        assert model.bits_per_rb(make_task(2)) == 100.0


class TestDOTProblem:
    def _catalog_for(self, tasks):
        catalog = Catalog()
        for t in tasks:
            catalog.add_path(make_path(t, f"p{t.task_id}", (make_block(f"b{t.task_id}"),)))
        return catalog

    def test_tasks_by_priority_descending(self, tiny_problem):
        priorities = [t.priority for t in tiny_problem.tasks_by_priority()]
        assert priorities == sorted(priorities, reverse=True)

    def test_task_lookup(self, tiny_problem):
        assert tiny_problem.task(0).task_id == 0
        with pytest.raises(KeyError):
            tiny_problem.task(99)

    def test_duplicate_ids_rejected(self):
        tasks = (make_task(1), make_task(1))
        with pytest.raises(ValueError, match="duplicate task ids"):
            DOTProblem(
                tasks=tasks,
                catalog=self._catalog_for(tasks[:1]),
                budgets=Budgets(1.0, 1.0, 1.0, 1),
            )

    def test_alpha_validated(self):
        tasks = (make_task(1),)
        with pytest.raises(ValueError, match="alpha"):
            DOTProblem(
                tasks=tasks,
                catalog=self._catalog_for(tasks),
                budgets=Budgets(1.0, 1.0, 1.0, 1),
                alpha=1.5,
            )

    def test_empty_tasks_rejected(self):
        with pytest.raises(ValueError, match="at least one task"):
            DOTProblem(tasks=(), catalog=Catalog(), budgets=Budgets(1.0, 1.0, 1.0, 1))

    def test_priority_ties_broken_by_id(self):
        tasks = (make_task(2, priority=0.5), make_task(1, priority=0.5))
        problem = DOTProblem(
            tasks=tasks,
            catalog=self._catalog_for(tasks),
            budgets=Budgets(1.0, 1.0, 1.0, 1),
        )
        assert [t.task_id for t in problem.tasks_by_priority()] == [1, 2]


class TestAssignment:
    def test_admitted_requires_path(self):
        with pytest.raises(ValueError, match="needs a path"):
            Assignment(task=make_task(1), path=None, admission_ratio=0.5, radio_blocks=1)

    def test_rejected_without_path_ok(self):
        a = Assignment(task=make_task(1), path=None, admission_ratio=0.0, radio_blocks=0)
        assert not a.admitted

    def test_admitted_rate(self):
        task = make_task(1, request_rate=10.0)
        path = make_path(task, "p", (make_block("b"),))
        a = Assignment(task=task, path=path, admission_ratio=0.4, radio_blocks=2)
        assert a.admitted_rate == pytest.approx(4.0)

    def test_ratio_bounds(self):
        with pytest.raises(ValueError):
            Assignment(task=make_task(1), path=None, admission_ratio=1.5, radio_blocks=0)


class TestDOTSolution:
    def _solution(self):
        t1 = make_task(1, request_rate=2.0, priority=1.0)
        t2 = make_task(2, request_rate=4.0, priority=0.5)
        shared = make_block("shared", memory_gb=0.5, training_cost_s=100.0)
        own1 = make_block("own1", memory_gb=0.2, compute_time_s=0.01, training_cost_s=10.0)
        own2 = make_block("own2", memory_gb=0.3, compute_time_s=0.02, training_cost_s=20.0)
        p1 = make_path(t1, "p1", (shared, own1))
        p2 = make_path(t2, "p2", (shared, own2))
        sol = DOTSolution()
        sol.assignments[1] = Assignment(task=t1, path=p1, admission_ratio=1.0, radio_blocks=3)
        sol.assignments[2] = Assignment(task=t2, path=p2, admission_ratio=0.5, radio_blocks=4)
        return sol

    def test_active_blocks_shared_counted_once(self):
        sol = self._solution()
        assert set(sol.active_blocks()) == {"shared", "own1", "own2"}
        assert sol.total_memory_gb == pytest.approx(0.5 + 0.2 + 0.3)

    def test_training_cost_paid_once(self):
        sol = self._solution()
        assert sol.total_training_cost_s == pytest.approx(130.0)

    def test_inference_compute_scales_with_admitted_rate(self):
        sol = self._solution()
        # t1: 1.0*2.0*(0.005+0.01); t2: 0.5*4.0*(0.005+0.02)
        assert sol.total_inference_compute_s == pytest.approx(
            2.0 * 0.015 + 2.0 * 0.025
        )

    def test_radio_blocks_count_whole_slices(self):
        # the slice grid: a partly admitted task holds its full slice too
        sol = self._solution()
        assert sol.total_radio_blocks == 3 + 4

    def test_weighted_admission_ratio(self):
        sol = self._solution()
        assert sol.weighted_admission_ratio == pytest.approx(1.0 * 1.0 + 0.5 * 0.5)

    def test_rejected_tasks_free_blocks(self):
        sol = self._solution()
        t3 = make_task(3)
        sol.assignments[3] = Assignment(task=t3, path=None, admission_ratio=0.0, radio_blocks=0)
        assert sol.admitted_task_count == 2
        assert "own3" not in sol.active_blocks()

    def test_admission_vector(self):
        sol = self._solution()
        assert sol.admission_vector() == {1: 1.0, 2: 0.5}
