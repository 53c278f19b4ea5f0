"""Unit tests for the weighted solution tree."""

from __future__ import annotations

from itertools import product

import pytest

from repro.core.catalog import Catalog
from repro.core.problem import Budgets, DOTProblem, RadioModel
from repro.core.tree import BranchState, branches, build_vector_tree, first_branch
from tests.conftest import make_block, make_path, make_task


def _problem_with_paths(paths_spec, budgets=None, tasks=None):
    """paths_spec: {task: [(path_id, blocks, accuracy)]}"""
    catalog = Catalog()
    for task, specs in paths_spec.items():
        for path_id, blocks, accuracy in specs:
            catalog.add_path(make_path(task, path_id, blocks, accuracy=accuracy))
    tasks = tasks or tuple(paths_spec)
    return DOTProblem(
        tasks=tasks,
        catalog=catalog,
        budgets=budgets
        or Budgets(compute_time_s=2.5, training_budget_s=1000.0, memory_gb=8.0, radio_blocks=50),
        radio=RadioModel(default_bits_per_rb=350_000.0),
    )


def _vertices(tree, layer=0):
    """A layer's vertices under the problem's radio capacity."""
    return tree.cliques[layer].items(tree.problem.budgets.radio_blocks)


class TestBuildTree:
    def test_layers_in_priority_order(self, tiny_problem):
        tree = build_vector_tree(tiny_problem)
        priorities = [c.task.priority for c in tree.cliques]
        assert priorities == sorted(priorities, reverse=True)

    def test_vertices_sorted_by_compute_time(self, tiny_problem):
        tree = build_vector_tree(tiny_problem)
        for layer in range(len(tree.cliques)):
            times = [v.compute_time_s for v in _vertices(tree, layer)]
            assert times == sorted(times)

    def test_accuracy_filter_removes_vertices(self):
        task = make_task(1, min_accuracy=0.9)
        specs = {
            task: [
                ("good", (make_block("a"),), 0.95),
                ("bad", (make_block("b"),), 0.7),
            ]
        }
        tree = build_vector_tree(_problem_with_paths(specs))
        assert len(tree.cliques[0]) == 1
        assert tree.filtered_out[1] == 1

    def test_latency_filter_removes_slow_vertices(self):
        task = make_task(1, max_latency_s=0.1)
        specs = {
            task: [
                ("fast", (make_block("a", compute_time_s=0.01),), 0.9),
                ("slow", (make_block("b", compute_time_s=0.5),), 0.9),
            ]
        }
        tree = build_vector_tree(_problem_with_paths(specs))
        assert [v.path.path_id for v in _vertices(tree)] == ["fast"]

    def test_radio_capacity_filter(self):
        # latency slack so small that even all RBs cannot carry the image
        task = make_task(1, max_latency_s=0.011)
        specs = {task: [("p", (make_block("a", compute_time_s=0.01),), 0.9)]}
        budgets = Budgets(
            compute_time_s=2.5, training_budget_s=1000.0, memory_gb=8.0, radio_blocks=5
        )
        tree = build_vector_tree(_problem_with_paths(specs, budgets=budgets))
        assert tree.tasks_without_options() == [task]
        # the radio filter is per walk: the clique itself keeps the variant
        assert len(tree.cliques[0]) == 1 and _vertices(tree) == []
        assert tree.filtered_out[1] == 1

    def test_num_branches_product(self, tiny_problem):
        tree = build_vector_tree(tiny_problem)
        assert tree.num_branches() == 2 * 2 * 2
        assert tree.num_branches(allow_reject=True) == 3 * 3 * 3


class TestBranchState:
    def test_extend_accumulates_new_blocks_only(self):
        task = make_task(1)
        shared = make_block("shared", memory_gb=0.5, training_cost_s=100.0)
        own = make_block("own", memory_gb=0.2, training_cost_s=10.0)
        state = BranchState().extend(make_path(task, "p1", (shared, own)))
        assert state.memory_gb == pytest.approx(0.7)
        assert state.training_cost_s == pytest.approx(110.0)

        task2 = make_task(2)
        own2 = make_block("own2", memory_gb=0.3, training_cost_s=20.0)
        state2 = state.extend(make_path(task2, "p2", (shared, own2)))
        # shared not double counted
        assert state2.memory_gb == pytest.approx(1.0)
        assert state2.training_cost_s == pytest.approx(130.0)

    def test_incremental_memory(self):
        task = make_task(1)
        shared = make_block("shared", memory_gb=0.5)
        own = make_block("own", memory_gb=0.2)
        path = make_path(task, "p", (shared, own))
        state = BranchState(used_block_ids=frozenset({"shared"}), memory_gb=0.5)
        assert state.incremental_memory(path) == pytest.approx(0.2)
        assert state.fits(path, 0.7) and not state.fits(path, 0.69)

    def test_immutable_extension(self):
        task = make_task(1)
        path = make_path(task, "p", (make_block("b", memory_gb=0.1),))
        state = BranchState()
        state.extend(path)
        assert state.memory_gb == 0.0  # original unchanged


class TestVertex:
    """Vertex order inside a clique."""

    def test_sort_key_orders_by_compute_then_memory(self):
        task = make_task(1)
        specs = {
            task: [
                ("c", (make_block("c", compute_time_s=0.09, memory_gb=0.1),), 0.9),
                ("b", (make_block("b", compute_time_s=0.01, memory_gb=0.9),), 0.9),
                ("a", (make_block("a", compute_time_s=0.01, memory_gb=0.1),), 0.9),
            ]
        }
        tree = build_vector_tree(_problem_with_paths(specs))
        assert [v.path.path_id for v in _vertices(tree)] == ["a", "b", "c"]


class TestBranches:
    """``branches`` against a filter over the full Cartesian product."""

    @staticmethod
    def _by_product(problem, allow_reject):
        """Index tuples (skip = clique size) of the valid branches, ascending."""
        tree = build_vector_tree(problem)
        layers = [_vertices(tree, i) for i in range(len(tree.cliques))]
        memory = problem.budgets.memory_gb
        valid = []
        for combo in product(*[range(len(layer) + 1) for layer in layers]):
            state = BranchState()
            for layer, index in zip(layers, combo):
                fitting = [v for v in layer if state.fits(v.path, memory)]
                if index == len(layer):
                    # a skip: explored on request, forced when nothing fits
                    if fitting and not allow_reject:
                        break
                elif layer[index] not in fitting:
                    break
                else:
                    state = state.extend(layer[index].path)
            else:
                valid.append(combo)
        return layers, valid

    @pytest.mark.parametrize("allow_reject", [False, True])
    @pytest.mark.parametrize("memory_gb", [8.0, 1.2, 0.6, 0.0])
    def test_yields_exactly_the_memory_feasible_branches(self, memory_gb, allow_reject):
        trunk = make_block("trunk", memory_gb=0.5)
        specs = {}
        for tid in (1, 2, 3):
            task = make_task(tid, priority=1.0 - 0.1 * tid)
            specs[task] = [
                (f"t{tid}-shared", (trunk, make_block(f"s{tid}", memory_gb=0.1)), 0.9),
                (f"t{tid}-own", (make_block(f"o{tid}", compute_time_s=0.02, memory_gb=0.4),), 0.9),
                (f"t{tid}-big", (make_block(f"b{tid}", compute_time_s=0.03, memory_gb=0.7),), 0.9),
            ]
        budgets = Budgets(
            compute_time_s=2.5, training_budget_s=1000.0, memory_gb=memory_gb, radio_blocks=50
        )
        problem = _problem_with_paths(specs, budgets=budgets)
        layers, expected = self._by_product(problem, allow_reject)
        tree = build_vector_tree(problem)
        leaves = list(branches(tree, problem.budgets, allow_reject=allow_reject))
        got = [
            tuple(
                len(layer) if item is None else layer.index(item)
                for (_, item), layer in zip(leaf, layers)
            )
            for leaf in leaves
        ]
        assert got == expected  # same set, lexicographic order
        assert got and got[0] == tuple(
            len(layer) if item is None else layer.index(item)
            for (_, item), layer in zip(first_branch(tree, problem.budgets), layers)
        )
        if memory_gb == 8.0:
            assert len(got) == tree.num_branches(allow_reject)
