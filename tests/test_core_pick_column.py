"""The pick-column solver against the item-per-layer solver it replaced.

A walk returns one pick per tree layer (the chosen variant's index in
its clique, -1 for none) and ``allocate`` builds decisions only as its
water-fill reads them.  ``tests/oracles.py`` keeps the solver whose
walks returned one ``(task id, BranchItem)`` per layer and whose
``allocate`` read a list of every placed item (``item_*``).  Every entry
point must return the identical ``DOTSolution``: the same assignment
order and, per task, the same path id, ``z`` and ``r`` (compared as
``float.hex``).  The allocation tests count what a direct solve builds.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.greedy import GreedyNoSharingSolver
from repro.baselines.random_policy import RandomPathSolver
from repro.core.aggregate import AggregateSolver
from repro.core.catalog import Catalog
from repro.core.heuristic import OffloaDNNSolver
from repro.core.optimal import OptimalSolver
from repro.core.problem import Budgets, DOTProblem
from repro.core.subproblem import BranchItem
from repro.core import tree as tree_module
from repro.core.tree import build_vector_tree, first_branch
from repro.workloads.largescale import (
    RequestRate,
    large_scale_problem,
    replicated_large_scale_problem,
)
from repro.workloads.smallscale import serving_small_scale_problem, small_scale_problem
from tests.conftest import make_block, make_path, make_task
from tests.oracles import (
    item_aggregate_solve,
    item_greedy_solve,
    item_optimal_solve,
    item_random_solve,
    item_solve,
)
from tests.test_core_aggregate import population_problem
from tests.test_core_vectorized import random_problem, replicated, tie_heavy_problems

#: exhaustive enumeration runs only where the whole tree is this small
OPTIMAL_CAP = 5_000

ORDERINGS = ("compute", "memory", "accuracy")


def rows(solution):
    """A solution in assignment order, floats as hex."""
    return [
        (
            tid,
            a.task.task_id,
            a.path.path_id if a.path else None,
            a.path.quality.name if a.path else None,
            float(a.admission_ratio).hex(),
            a.radio_blocks,
        )
        for tid, a in solution.assignments.items()
    ]


def assert_offloadnn_parity(problem, margins=(0, 2)) -> None:
    for ordering, margin in product(ORDERINGS, margins):
        solver = OffloaDNNSolver(ordering=ordering, slice_margin_rbs=margin)
        got = solver.solve(problem)
        want = item_solve(problem, ordering, margin)
        label = f"{ordering}/m{margin}"
        assert rows(got) == rows(want), label
        assert got.branches_explored == want.branches_explored, label


#: every workload builder at every rate it takes
WORKLOADS = {
    **{f"table4-{r.label}": lambda r=r: large_scale_problem(r) for r in RequestRate},
    **{
        f"replicated-{r.label}": lambda r=r: replicated_large_scale_problem(r, 5)
        for r in RequestRate
    },
    **{f"small{t}": lambda t=t: small_scale_problem(t) for t in range(1, 6)},
    **{f"serving{t}": lambda t=t: serving_small_scale_problem(t) for t in range(1, 6)},
}


class TestParity:
    @settings(max_examples=40, deadline=None)
    @given(problem=tie_heavy_problems())
    def test_tie_heavy_problems(self, problem):
        assert_offloadnn_parity(problem)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), tasks=st.integers(1, 10))
    def test_random_problems(self, seed, tasks):
        assert_offloadnn_parity(random_problem(seed, tasks))

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_every_workload_builder(self, name):
        assert_offloadnn_parity(WORKLOADS[name](), margins=(0, 2, 10))

    @pytest.mark.parametrize("seed", range(4))
    def test_memo_warm(self, seed):
        problem = replicated(random_problem(seed, 5), 3, deshare=seed % 2 == 1)
        memo: dict = {}
        solver = OffloaDNNSolver()
        solver.solve(problem, memo=memo)
        want = item_solve(problem, memo=dict(memo))
        assert rows(solver.solve(problem, memo=memo)) == rows(want)

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("tasks", [2, 3, 4, 5])
    def test_optimal_solver(self, seed, tasks):
        problem = random_problem(seed, tasks)
        if build_vector_tree(problem).num_branches() > OPTIMAL_CAP:
            assert tasks > 3
            return
        got, want = OptimalSolver().solve(problem), item_optimal_solve(problem)
        assert rows(got) == rows(want)
        assert got.branches_explored == want.branches_explored

    @pytest.mark.parametrize("t", [1, 2, 3])
    def test_optimal_solver_small_scale(self, t):
        problem = small_scale_problem(t)
        got = OptimalSolver().solve(problem)
        want = item_optimal_solve(problem)
        assert rows(got) == rows(want)
        assert got.branches_explored == want.branches_explored

    @pytest.mark.parametrize("rate", list(RequestRate))
    def test_aggregate_solver_on_a_replicated_population(self, rate):
        problem = replicated_large_scale_problem(rate, 50)
        solver = AggregateSolver()
        got, want = solver.solve(problem), item_aggregate_solve(solver, problem)
        assert rows(got) == rows(want)
        assert [(a, ids) for a, ids in got.assignments.runs] == [
            (a, ids) for a, ids in want.assignments.runs
        ]

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("budget_scale", [0.0, 0.2, 1.0, 4.0])
    def test_aggregate_solver_on_shuffled_populations(self, seed, budget_scale):
        problem = population_problem(seed, 6, budget_scale)
        solver = AggregateSolver()
        assert rows(solver.solve(problem)) == rows(item_aggregate_solve(solver, problem))

    @pytest.mark.parametrize("seed", range(6))
    def test_baselines(self, seed):
        for problem in (random_problem(seed), large_scale_problem(RequestRate.HIGH)):
            got, want = GreedyNoSharingSolver().solve(problem), item_greedy_solve(problem)
            assert rows(got) == rows(want)
            assert [a.path and a.path.blocks for a in got.assignments.values()] == [
                a.path and a.path.blocks for a in want.assignments.values()
            ]
            got = RandomPathSolver(seed=seed).solve(problem)
            assert rows(got) == rows(item_random_solve(problem, seed))

    def test_population_direct_solve(self):
        """``solve_population``'s de-shared 10⁴-task problem: every task
        holds its own seed-permuted path tuple."""
        shared = replicated_large_scale_problem(RequestRate.MEDIUM, 500)
        rng = np.random.default_rng(41)
        catalog = Catalog()
        for task_id, paths in shared.catalog.paths_by_task.items():
            catalog.paths_by_task[task_id] = tuple(
                paths[i] for i in rng.permutation(len(paths))
            )
        problem = replace(shared, catalog=catalog)
        assert len(problem.tasks) == 10_000
        got = OffloaDNNSolver().solve(problem)
        assert rows(got) == rows(item_solve(problem))
        assert 0 < got.admitted_task_count < len(problem.tasks)


class TestReplicaKey:
    def test_a_shared_tuple_builds_one_clique_per_requirement_set(self):
        """Tasks sharing one path tuple share a clique only while bits per
        RB, accuracy, latency and quality set agree too; the others are
        built apart (the full key), as the scalar build would."""
        from tests.test_core_vectorized import _oracle_rows, _tree_rows

        base = random_problem(3, 4)
        changes = [
            {},
            {"max_latency_s": lambda t: t.max_latency_s / 2},
            {"min_accuracy": lambda t: 0.99},
            {"qualities": lambda t: t.qualities[:1]},
            {},
        ]
        tasks, catalog, overrides = [], Catalog(), {}
        for task in base.tasks:
            for k, change in enumerate(changes):
                task_id = 10 * task.task_id + k
                fields = {name: f(task) for name, f in change.items()}
                tasks.append(replace(task, task_id=task_id, **fields))
                catalog.paths_by_task[task_id] = base.catalog.paths_by_task[task.task_id]
            overrides[10 * task.task_id + len(changes)] = 700_000.0
            tasks.append(replace(task, task_id=10 * task.task_id + len(changes)))
            catalog.paths_by_task[tasks[-1].task_id] = base.catalog.paths_by_task[task.task_id]
        problem = replace(
            base,
            tasks=tuple(tasks),
            catalog=catalog,
            radio=replace(base.radio, per_task_bits_per_rb=overrides),
        )
        build = mock.patch.object(
            tree_module, "build_cliques", side_effect=tree_module.build_cliques
        )
        with build as built:
            tree = build_vector_tree(problem)
        assert _tree_rows(tree) == _oracle_rows(problem)
        built_ids = {task.task_id for task in built.call_args.args[0]}
        by_id = {clique.task.task_id: clique for clique in tree.cliques}
        for task in base.tasks:
            first, *others, twin, rerated = (
                by_id[10 * task.task_id + k] for k in range(len(changes) + 1)
            )
            # the twin is no spec of its own: it reads the first one's
            # rows of the very same columns; every other one is built
            assert first.task.task_id in built_ids
            assert twin.task.task_id not in built_ids
            assert twin.columns is first.columns
            assert (twin.lo, twin.hi) == (first.lo, first.hi)
            for other in (*others, rerated):
                assert other.task.task_id in built_ids


class TestAllocations:
    """Counts, not time: what a direct population solve builds."""

    def test_branch_items_stop_where_the_pool_is_spent(self):
        from repro.obs import Tracer, use_tracer

        problem = replicated_large_scale_problem(RequestRate.MEDIUM, 500)
        assert len(problem.tasks) == 10_000
        built = mock.patch.object(
            BranchItem, "__init__", autospec=True, side_effect=BranchItem.__init__
        )
        tracer = Tracer()
        with built as constructed, use_tracer(tracer):
            solution = OffloaDNNSolver().solve(problem)
        (span,) = [s for s in tracer.records if s.name == "solver.water_fill"]
        spent_at = span.args["radio_spent_at"]
        assert spent_at is not None and spent_at == solution.admitted_task_count
        assert constructed.call_count <= spent_at + 1
        assert len(solution.assignments) == len(problem.tasks)

    @pytest.mark.parametrize("ordering", ["compute", "memory", "accuracy"])
    def test_first_branch_returns_plain_ints(self, ordering):
        problem = replicated_large_scale_problem(RequestRate.MEDIUM, 5)
        problem = replace(problem, budgets=replace(problem.budgets, memory_gb=1.0))
        picks = first_branch(build_vector_tree(problem), problem.budgets, ordering)
        assert len(picks) == len(problem.tasks)
        assert all(type(pick) is int for pick in picks)
        assert -1 in picks and max(picks) >= 0

    def test_tasks_by_priority_equals_the_key_tuple_order(self):
        priorities = [0.9, 0.5, 0.5, 0.0, -0.0, 1.0, 0.2]
        rng = np.random.default_rng(5)
        ids = rng.permutation(400).tolist()
        tasks = tuple(
            make_task(tid, priority=priorities[int(rng.integers(len(priorities)))])
            for tid in ids
        )
        catalog = Catalog()
        for task in tasks:
            catalog.add_path(make_path(task, f"p{task.task_id}", (make_block("b"),)))
        problem = DOTProblem(
            tasks=tasks,
            catalog=catalog,
            budgets=Budgets(
                compute_time_s=1.0, training_budget_s=1000.0, memory_gb=8.0, radio_blocks=50
            ),
        )
        want = tuple(sorted(tasks, key=lambda t: (-t.priority, t.task_id)))
        got = problem.tasks_by_priority()
        assert [t.task_id for t in got] == [t.task_id for t in want]
        assert all(a is b for a, b in zip(got, want))
