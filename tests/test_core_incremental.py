"""Warm-start re-solves: the caller's clique memo across changing problems."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.catalog import Catalog
from repro.core.heuristic import OffloaDNNSolver
from repro.core.problem import Budgets, DOTProblem, RadioModel
from repro.core.tree import build_vector_tree
from tests.conftest import make_block, make_path, make_task


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


def _recosted(problem: DOTProblem, deployed: frozenset[str], memory_gb: float):
    """``problem`` with the ``deployed`` blocks free (no memory, no
    training cost) and ``memory_gb`` of memory: every path tuple is
    rebuilt, one new object per distinct block value."""
    catalog = Catalog()
    rebuilt: dict = {}
    for paths in problem.catalog.paths_by_task.values():
        for path in paths:
            blocks = tuple(
                rebuilt.setdefault(
                    b,
                    replace(b, memory_gb=0.0, training_cost_s=0.0)
                    if b.block_id in deployed else b,
                )
                for b in path.blocks
            )
            catalog.add_path(replace(path, blocks=blocks))
    return replace(
        problem, catalog=catalog, budgets=replace(problem.budgets, memory_gb=memory_gb)
    )


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
        """A block re-costed between re-solves (deployed blocks zeroed and
        every path tuple rebuilt) must not be charged the memory an
        earlier solve saw under its id."""
        from tests.test_core_vectorized import random_problem, solution_key

        problem = random_problem(seed)
        solver = OffloaDNNSolver()
        memo: dict = {}
        first = solver.solve(problem, memo=memo)
        memory_gb = problem.budgets.memory_gb
        discounted = _recosted(
            problem, frozenset(first.active_blocks()), memory_gb - 0.9 * memory_gb
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


class TestControllerWaves:
    """The controller solves a later wave against the ledger's remaining
    memory, which already excludes the deployed blocks: those are free in
    (1b)."""

    @staticmethod
    def _controller(budgets: Budgets):
        from repro.edge.controller import OffloaDNNController, ResourceLedger

        return OffloaDNNController(
            ledger=ResourceLedger(replace(budgets, memory_gb=5.0)),
            radio=RadioModel(default_bits_per_rb=350_000.0),
        )

    def test_a_wave_on_the_deployed_trunk_is_admitted(self):
        wave1, wave2 = _two_wave_problems()
        controller = self._controller(wave1.budgets)
        first = controller.handle_admission_requests(wave1.tasks, wave1.catalog)
        assert all(ticket.admitted for ticket in first.values())
        ledger = controller.ledger
        assert ledger.remaining().memory_gb == pytest.approx(2.0)
        # wave 2 needs 1.0 GB of new memory (two own blocks) next to the
        # deployed 2.0 GB trunk; charged the trunk again it fitted nothing
        second = controller.handle_admission_requests(wave2.tasks, wave2.catalog)
        assert all(ticket.admitted for ticket in second.values())
        assert ledger.remaining().memory_gb == pytest.approx(1.0)
        block, users = ledger.blocks["shared"]
        assert users == {1, 2, 3, 4}
        # the blocks the ledger holds keep their cost: the zeroed copies
        # only priced the solve
        assert block.memory_gb == 2.0

    def test_the_catalog_is_untouched_while_nothing_is_deployed(self):
        wave1, wave2 = _two_wave_problems()
        controller = self._controller(wave1.budgets)
        seen = []
        solve = controller.solver.solve

        def spy(problem):
            seen.append(problem.catalog)
            return solve(problem)

        controller.solver = replace(controller.solver)
        controller.solver.solve = spy
        controller.handle_admission_requests(wave1.tasks, wave1.catalog)
        assert seen[0] is wave1.catalog
        # with blocks deployed each tuple is rebuilt once: tasks sharing a
        # tuple keep sharing its rebuilt copy, in which only deployed
        # blocks are free
        wave2.catalog.paths_by_task[4] = wave2.catalog.paths_by_task[3]
        controller.handle_admission_requests(wave2.tasks, wave2.catalog)
        rebuilt = seen[1].paths_by_task
        assert rebuilt[3] is rebuilt[4] and rebuilt[3] is not wave2.catalog.paths_by_task[3]
        (path,) = rebuilt[3]
        assert [(b.block_id, b.memory_gb, b.training_cost_s) for b in path.blocks] == [
            ("shared", 0.0, 0.0), ("own3", 0.5, 20.0),
        ]
