"""Unit tests for the knapsack machinery behind Proposition 1."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.nphard import (
    KnapsackInstance,
    dot_solution_to_selection,
    knapsack_to_dot,
    solve_mdk,
)
from tests.oracles import item_optimal_solve


def brute_force_mdk(instance: KnapsackInstance) -> float:
    best = 0.0
    n = instance.num_items
    for mask in itertools.product([0, 1], repeat=n):
        ok = all(
            sum(mask[i] * instance.weights[i][k] for i in range(n))
            <= instance.capacities[k] + 1e-12
            for k in range(instance.num_dims)
        )
        if ok:
            best = max(best, sum(mask[i] * instance.values[i] for i in range(n)))
    return best


class TestKnapsackInstance:
    def test_validation_mismatched_lengths(self):
        with pytest.raises(ValueError):
            KnapsackInstance(values=(1.0,), weights=(), capacities=(1.0,))

    def test_validation_dimension_mismatch(self):
        with pytest.raises(ValueError):
            KnapsackInstance(values=(1.0,), weights=((1.0, 2.0),), capacities=(1.0,))

    def test_negative_values_rejected(self):
        with pytest.raises(ValueError):
            KnapsackInstance(values=(-1.0,), weights=((1.0,),), capacities=(1.0,))


class TestSolveMdk:
    def test_classic_instance(self):
        instance = KnapsackInstance(
            values=(10.0, 7.0, 8.0, 3.0),
            weights=((5.0,), (4.0,), (4.0,), (1.0,)),
            capacities=(8.0,),
        )
        value, chosen = solve_mdk(instance)
        assert value == 15.0
        assert chosen == frozenset({1, 2})

    def test_two_dimensional(self):
        instance = KnapsackInstance(
            values=(6.0, 5.0, 4.0),
            weights=((3.0, 1.0), (2.0, 2.0), (1.0, 3.0)),
            capacities=(4.0, 4.0),
        )
        value, chosen = solve_mdk(instance)
        assert value == brute_force_mdk(instance)

    def test_nothing_fits(self):
        instance = KnapsackInstance(
            values=(5.0,), weights=((10.0,),), capacities=(1.0,)
        )
        value, chosen = solve_mdk(instance)
        assert value == 0.0
        assert chosen == frozenset()

    @given(
        n=st.integers(min_value=1, max_value=7),
        dims=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_force_property(self, n, dims, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        values = tuple(float(v) for v in rng.integers(1, 20, size=n))
        weights = tuple(
            tuple(float(w) for w in rng.integers(1, 10, size=dims)) for _ in range(n)
        )
        capacities = tuple(float(c) for c in rng.integers(5, 25, size=dims))
        instance = KnapsackInstance(values=values, weights=weights, capacities=capacities)
        value, chosen = solve_mdk(instance)
        assert value == pytest.approx(brute_force_mdk(instance))
        # the reported selection must be feasible and achieve the value
        for k in range(dims):
            assert sum(weights[i][k] for i in chosen) <= capacities[k] + 1e-9
        assert sum(values[i] for i in chosen) == pytest.approx(value)


class TestReduction:
    def test_reduction_structure(self):
        instance = KnapsackInstance(
            values=(10.0, 7.0), weights=((5.0,), (4.0,)), capacities=(8.0,)
        )
        problem = knapsack_to_dot(instance)
        assert len(problem.tasks) == 2
        assert problem.budgets.memory_gb == 8.0
        # one dedicated block per item, weight as memory
        blocks = problem.catalog.all_blocks()
        assert blocks["item0-block"].memory_gb == 5.0

    def test_multi_dim_not_supported_executable(self):
        instance = KnapsackInstance(
            values=(1.0,), weights=((1.0, 1.0),), capacities=(1.0, 1.0)
        )
        with pytest.raises(ValueError):
            knapsack_to_dot(instance)

    @pytest.mark.parametrize(
        "values,weights,capacity",
        [
            ((10.0, 7.0, 8.0, 3.0), (5.0, 4.0, 4.0, 1.0), 8.0),
            ((4.0, 4.0, 5.0), (2.0, 2.0, 3.0), 4.0),
            ((9.0, 1.0), (3.0, 3.0), 3.0),
        ],
    )
    def test_dot_optimum_recovers_knapsack_optimum(self, values, weights, capacity):
        instance = KnapsackInstance(
            values=values,
            weights=tuple((w,) for w in weights),
            capacities=(capacity,),
        )
        knap_value, _ = solve_mdk(instance)
        problem = knapsack_to_dot(instance)
        # the reduction needs an explicit "serve no path" vertex per layer,
        # which the paper's tree does not have: the item-leaf oracle's
        solution = item_optimal_solve(problem, allow_reject=True)
        chosen = dot_solution_to_selection(solution)
        dot_value = sum(values[i] for i in chosen)
        assert dot_value == pytest.approx(knap_value)
        assert sum(weights[i] for i in chosen) <= capacity + 1e-9
