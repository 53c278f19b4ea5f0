"""Unit tests for the dynamic (incremental) DOT extension."""

from __future__ import annotations

import pytest

from dataclasses import replace

from repro.core.heuristic import OffloaDNNSolver
from repro.core.incremental import deployed_block_ids, discount_problem
from repro.core.objective import check_constraints
from repro.core.problem import Budgets, DOTProblem
from repro.core.tree import build_vector_tree
from tests.conftest import make_block, make_path, make_task
from repro.core.catalog import Catalog
from repro.core.problem import RadioModel


def _two_wave_problems():
    """Wave 1 problem and a wave-2 problem sharing the same base block."""
    shared = make_block("shared", compute_time_s=0.004, memory_gb=2.0,
                        training_cost_s=100.0)
    quality = make_task(0).qualities[0]

    def build(task_ids, priorities):
        catalog = Catalog()
        tasks = []
        for tid, p in zip(task_ids, priorities):
            task = make_task(tid, priority=p, min_accuracy=0.7, quality=quality)
            tasks.append(task)
            own = make_block(f"own{tid}", compute_time_s=0.003, memory_gb=0.5,
                             training_cost_s=20.0)
            catalog.add_path(make_path(task, f"p{tid}", (shared, own), accuracy=0.9))
        budgets = Budgets(compute_time_s=2.5, training_budget_s=1000.0,
                          memory_gb=8.0, radio_blocks=50)
        return DOTProblem(tasks=tuple(tasks), catalog=catalog, budgets=budgets,
                          radio=RadioModel(default_bits_per_rb=350_000.0))

    return build([1, 2], [0.9, 0.8]), build([3, 4], [0.7, 0.6])


class TestDiscountProblem:
    def test_deployed_blocks_become_free(self):
        wave1, wave2 = _two_wave_problems()
        solution1 = OffloaDNNSolver().solve(wave1)
        deployed = deployed_block_ids(solution1)
        assert "shared" in deployed
        incremental = discount_problem(wave2, deployed)
        blocks = incremental.catalog.all_blocks()
        assert blocks["shared"].memory_gb == 0.0
        assert blocks["shared"].training_cost_s == 0.0
        assert blocks["own3"].memory_gb == 0.5  # new blocks keep their cost

    def test_capacities_discounted(self):
        wave1, wave2 = _two_wave_problems()
        solution1 = OffloaDNNSolver().solve(wave1)
        incremental = discount_problem(
            wave2,
            deployed_block_ids(solution1),
            used_memory_gb=solution1.total_memory_gb,
            used_compute_s=solution1.total_inference_compute_s,
            used_radio_blocks=solution1.total_radio_blocks,
        )
        assert incremental.budgets.memory_gb == pytest.approx(
            8.0 - solution1.total_memory_gb
        )
        assert incremental.budgets.radio_blocks == int(
            50 - solution1.total_radio_blocks
        )

    def test_incremental_solution_fits_global_budget(self):
        """Wave-1 usage plus discounted wave-2 usage stays within the
        original budgets — the correctness property of the extension."""
        wave1, wave2 = _two_wave_problems()
        solution1 = OffloaDNNSolver().solve(wave1)
        incremental = discount_problem(
            wave2,
            deployed_block_ids(solution1),
            used_memory_gb=solution1.total_memory_gb,
            used_compute_s=solution1.total_inference_compute_s,
            used_radio_blocks=solution1.total_radio_blocks,
        )
        solution2 = OffloaDNNSolver().solve(incremental)
        assert check_constraints(incremental, solution2).feasible
        total_memory = solution1.total_memory_gb + solution2.total_memory_gb
        total_rbs = solution1.total_radio_blocks + solution2.total_radio_blocks
        assert total_memory <= wave1.budgets.memory_gb + 1e-9
        assert total_rbs <= wave1.budgets.radio_blocks + 1e-9

    def test_newcomers_prefer_deployed_blocks(self):
        """With the shared trunk free, the shared path dominates any
        dedicated alternative of equal compute."""
        wave1, wave2 = _two_wave_problems()
        solution1 = OffloaDNNSolver().solve(wave1)
        incremental = discount_problem(wave2, deployed_block_ids(solution1))
        solution2 = OffloaDNNSolver().solve(incremental)
        for assignment in solution2.admitted_assignments():
            assert "shared" in assignment.path.block_ids()
        # the shared block contributes no new memory
        assert solution2.total_memory_gb == pytest.approx(2 * 0.5)

    def test_exhausted_capacity_yields_zero_headroom_instance(self):
        """A saturated platform is a *valid* instance, not an error:
        solvers reject everything instead of the caller crashing."""
        _, wave2 = _two_wave_problems()
        incremental = discount_problem(wave2, frozenset(), used_memory_gb=8.0)
        assert incremental.budgets.memory_gb == 0.0
        solution = OffloaDNNSolver().solve(incremental)
        assert solution.admitted_task_count == 0

    def test_all_pools_exhausted_rejects_all(self):
        _, wave2 = _two_wave_problems()
        incremental = discount_problem(
            wave2,
            frozenset(),
            used_memory_gb=100.0,
            used_compute_s=100.0,
            used_radio_blocks=100.0,
        )
        assert incremental.budgets.memory_gb == 0.0
        assert incremental.budgets.compute_time_s == 0.0
        assert incremental.budgets.radio_blocks == 0
        for explore in (1, 3):
            solution = OffloaDNNSolver(explore_branches=explore).solve(incremental)
            assert solution.admitted_task_count == 0
            assert check_constraints(incremental, solution).feasible

    def test_radio_discount_floors_instead_of_truncating(self):
        """Σ z·r fractionally below an integer must not eat a whole RB."""
        _, wave2 = _two_wave_problems()
        incremental = discount_problem(
            wave2, frozenset(), used_radio_blocks=12.999999999
        )
        assert incremental.budgets.radio_blocks == 37

    def test_discount_cache_shares_one_object_per_block_value(self):
        """Value-keyed caching: every occurrence of a block across paths
        maps to one discounted object, with the discount decided by the
        block's own value (not whichever same-id block was seen first)."""
        wave1, wave2 = _two_wave_problems()
        solution1 = OffloaDNNSolver().solve(wave1)
        incremental = discount_problem(wave2, deployed_block_ids(solution1))
        seen: dict[str, object] = {}
        for paths in incremental.catalog.paths_by_task.values():
            for path in paths:
                for block in path.blocks:
                    assert seen.setdefault(block.block_id, block) is block
        assert seen["shared"].memory_gb == 0.0
        assert seen["own3"].memory_gb == 0.5
        assert seen["own4"].memory_gb == 0.5

    def test_no_deployed_blocks_is_identity_costs(self):
        _, wave2 = _two_wave_problems()
        incremental = discount_problem(wave2, frozenset())
        original = wave2.catalog.all_blocks()
        discounted = incremental.catalog.all_blocks()
        for block_id, block in original.items():
            assert discounted[block_id].memory_gb == block.memory_gb


def _solution_key(solution):
    return [
        (
            tid,
            a.path.path_id if a.path else None,
            a.admission_ratio,
            a.radio_blocks,
        )
        for tid, a in sorted(solution.assignments.items())
    ]


def _hits(problem, memo) -> int:
    """Cliques a solve of ``problem`` would read from ``memo`` (probes a copy)."""
    return build_vector_tree(problem, dict(memo)).cached_cliques


class TestWarmStartSolver:
    """Warm starts: the caller's clique memo handed to ``solve(problem, memo=)``
    (what the ``WarmStartSolver`` class used to keep to itself)."""

    def test_matches_cold_solve_exactly(self):
        wave1, _ = _two_wave_problems()
        solver = OffloaDNNSolver()
        memo: dict = {}
        cold = solver.solve(wave1)
        assert _hits(wave1, memo) == 0
        first = solver.solve(wave1, memo=memo)
        assert _hits(wave1, memo) == len(wave1.tasks) == len(memo)
        second = solver.solve(wave1, memo=memo)
        assert _solution_key(first) == _solution_key(cold)
        assert _solution_key(second) == _solution_key(cold)

    def test_churn_reuses_surviving_cliques(self):
        shared = make_block("trunk", compute_time_s=0.004, memory_gb=2.0,
                            training_cost_s=100.0)
        quality = make_task(0).qualities[0]

        def build(task_ids):
            catalog = Catalog()
            tasks = []
            paths_by_id = {}
            for tid in task_ids:
                task = make_task(tid, priority=0.9 - 0.01 * tid,
                                 min_accuracy=0.7, quality=quality)
                tasks.append(task)
                own = make_block(f"own{tid}", compute_time_s=0.003,
                                 memory_gb=0.5, training_cost_s=20.0)
                catalog.add_path(
                    make_path(task, f"p{tid}", (shared, own), accuracy=0.9)
                )
                paths_by_id[tid] = catalog.paths_for(tid)
            budgets = Budgets(compute_time_s=2.5, training_budget_s=1000.0,
                              memory_gb=8.0, radio_blocks=50)
            return DOTProblem(
                tasks=tuple(tasks), catalog=catalog, budgets=budgets,
                radio=RadioModel(default_bits_per_rb=350_000.0),
            ), paths_by_id

        memo: dict = {}
        problem1, paths1 = build([1, 2, 3])
        OffloaDNNSolver().solve(problem1, memo=memo)
        assert sorted(memo) == [1, 2, 3]

        # task 3 departs, task 4 arrives; survivors keep their path tuples
        problem2, _ = build([1, 2, 4])
        problem2.catalog.paths_by_task[1] = paths1[1]
        problem2.catalog.paths_by_task[2] = paths1[2]
        memo.pop(3)
        survivors = {tid: memo[tid] for tid in (1, 2)}
        tree = build_vector_tree(problem2, memo)
        assert tree.cached_cliques == 2  # survivors hit, the arrival missed
        assert all(memo[tid] is clique for tid, clique in survivors.items())
        assert sorted(memo) == [1, 2, 4]
        cold = OffloaDNNSolver().solve(problem2)
        for explore in (1, 3):  # the old class refused branch exploration
            solver = OffloaDNNSolver(explore_branches=explore)
            assert _solution_key(solver.solve(problem2, memo=memo)) == _solution_key(
                solver.solve(problem2)
            )
        assert _solution_key(OffloaDNNSolver().solve(problem2, memo=memo)) == (
            _solution_key(cold)
        )

    def test_changed_task_definition_rebuilds(self):
        wave1, _ = _two_wave_problems()
        memo: dict = {}
        OffloaDNNSolver().solve(wave1, memo=memo)
        changes = {
            "max_latency_s": lambda t: t.max_latency_s / 2,
            "min_accuracy": lambda t: t.min_accuracy + 0.1,
        }
        for name, change in changes.items():
            tasks = tuple(replace(t, **{name: change(t)}) for t in wave1.tasks)
            changed = replace(wave1, tasks=tasks)
            assert _hits(changed, memo) == 0, name
            solution = OffloaDNNSolver().solve(changed, memo=dict(memo))
            assert _solution_key(solution) == _solution_key(
                OffloaDNNSolver().solve(changed)
            )
        # a changed capacity per RB invalidates that task's entry only
        rerated = replace(
            wave1,
            radio=RadioModel(
                default_bits_per_rb=350_000.0,
                per_task_bits_per_rb={wave1.tasks[0].task_id: 700_000.0},
            ),
        )
        assert _hits(rerated, memo) == len(wave1.tasks) - 1
        stale = memo[wave1.tasks[0].task_id]
        solution = OffloaDNNSolver().solve(rerated, memo=memo)
        assert memo[wave1.tasks[0].task_id] is not stale  # overwritten, not added
        assert len(memo) == len(wave1.tasks)
        assert _solution_key(solution) == _solution_key(OffloaDNNSolver().solve(rerated))

    @pytest.mark.parametrize("seed", range(8))
    def test_discounted_resolve_matches_cold(self, seed):
        """A block re-costed between re-solves (deployed blocks zeroed by
        ``discount_problem``, which rebuilds every path tuple) must not be
        charged the memory an earlier solve saw under its id."""
        from tests.test_core_vectorized import random_problem, solution_key

        problem = random_problem(seed)
        solver = OffloaDNNSolver()
        memo: dict = {}
        first = solver.solve(problem, memo=memo)
        discounted = discount_problem(
            problem,
            deployed_block_ids(first),
            used_memory_gb=0.9 * problem.budgets.memory_gb,
        )
        assert _hits(discounted, memo) == 0
        cold = solver.solve(discounted)
        assert solution_key(solver.solve(discounted, memo=memo)) == solution_key(cold)
        # seed 0 is the reported instance: the stale charge rejected all
        if seed == 0:
            assert cold.admitted_task_count > 0
        # and back: the undiscounted costs are not served stale either
        assert solution_key(solver.solve(problem, memo=memo)) == solution_key(first)
        assert len(memo) == len(problem.tasks)

    def test_prune_and_clear(self):
        """Departures are the caller's ``dict.pop`` / ``dict.clear``."""
        wave1, _ = _two_wave_problems()
        memo: dict = {}
        OffloaDNNSolver().solve(wave1, memo=memo)
        keep = wave1.tasks[0].task_id
        for task_id in [tid for tid in memo if tid != keep]:
            memo.pop(task_id)
        assert _hits(wave1, memo) == 1
        memo.clear()
        assert _hits(wave1, memo) == 0
