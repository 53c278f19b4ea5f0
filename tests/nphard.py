"""NP-hardness machinery behind Proposition 1 (a test oracle).

The paper proves DOT NP-hard by reduction from the binary
multi-dimensional knapsack problem (MDK).  This module makes the
argument executable for ``tests/test_core_nphard.py``:

* an exact MDK solver (branch and bound with a fractional upper bound),
* the polynomial reduction from 0/1 knapsack instances to DOT instances
  (:func:`knapsack_to_dot`), using the *memory* dimension — the one DOT
  resource that is consumed binarily (a block's memory is paid in full
  whenever any admitted task uses it, regardless of the admission
  ratio), which is what makes admission combinatorial.

The tests verify that solving the reduced DOT instance to optimality with
explicit rejection recovers the knapsack optimum, i.e. the reduction is
answer-preserving on small instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.catalog import Block, Catalog, Path
from repro.core.problem import Budgets, DOTProblem, RadioModel
from repro.core.task import QualityLevel, Task

__all__ = ["KnapsackInstance", "solve_mdk", "knapsack_to_dot", "dot_solution_to_selection"]


@dataclass(frozen=True)
class KnapsackInstance:
    """Binary multi-dimensional knapsack: max value, weights <= capacity."""

    values: tuple[float, ...]
    #: weights[i][k] — weight of item i in dimension k
    weights: tuple[tuple[float, ...], ...]
    capacities: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.values) != len(self.weights):
            raise ValueError("values and weights disagree on item count")
        dims = {len(w) for w in self.weights}
        if dims and dims != {len(self.capacities)}:
            raise ValueError("weight vectors must match capacity dimensions")
        if any(v < 0 for v in self.values):
            raise ValueError("values must be non-negative")

    @property
    def num_items(self) -> int:
        return len(self.values)

    @property
    def num_dims(self) -> int:
        return len(self.capacities)


def _fractional_bound(
    instance: KnapsackInstance, chosen_value: float, remaining: np.ndarray, items: list[int]
) -> float:
    """Upper bound: fractional relaxation on the tightest dimension."""
    bound = chosen_value
    for i in items:
        w = np.array(instance.weights[i])
        with np.errstate(divide="ignore", invalid="ignore"):
            fractions = np.where(w > 0, remaining / np.maximum(w, 1e-300), np.inf)
        fit = min(1.0, float(fractions.min()) if len(fractions) else 1.0)
        if fit <= 0:
            continue
        bound += instance.values[i] * fit
    return bound


def solve_mdk(instance: KnapsackInstance) -> tuple[float, frozenset[int]]:
    """Exact solve by depth-first branch and bound.

    Returns (optimal value, chosen item indices).  Intended for the small
    instances used in the reduction tests (exponential worst case).
    """
    order = sorted(
        range(instance.num_items),
        key=lambda i: -(instance.values[i] / (1e-12 + sum(instance.weights[i]))),
    )
    best_value = 0.0
    best_set: frozenset[int] = frozenset()
    capacities = np.array(instance.capacities, dtype=float)

    def dfs(pos: int, value: float, remaining: np.ndarray, chosen: list[int]) -> None:
        nonlocal best_value, best_set
        if value > best_value:
            best_value = value
            best_set = frozenset(chosen)
        if pos == len(order):
            return
        tail = order[pos:]
        if _fractional_bound(instance, value, remaining, tail) <= best_value + 1e-12:
            return
        item = order[pos]
        weight = np.array(instance.weights[item], dtype=float)
        if np.all(weight <= remaining + 1e-12):
            chosen.append(item)
            dfs(pos + 1, value + instance.values[item], remaining - weight, chosen)
            chosen.pop()
        dfs(pos + 1, value, remaining, chosen)

    dfs(0, 0.0, capacities.copy(), [])
    return best_value, best_set


def knapsack_to_dot(
    instance: KnapsackInstance,
    alpha: float = 1.0,
) -> DOTProblem:
    """Polynomial reduction: single-dimension 0/1 knapsack -> DOT.

    Gadget: item ``i`` becomes task ``i`` with priority proportional to
    its value; its only candidate path uses one dedicated block whose
    *memory* equals the item weight.  Memory is binary in DOT — blocks
    deploy in full whenever ``z_i > 0`` — so admission is combinatorial.
    Radio/compute/latency budgets are made non-binding, and ``α = 1``
    focuses the objective on the rejection term: minimizing it equals
    maximizing the admitted value, i.e. the knapsack objective.

    Multi-dimensional instances encode each extra dimension as another
    set of single-purpose blocks on a second DNN; for clarity we support
    the 1-D case here, which already yields NP-hardness (the MDK argument
    stacks the same gadget per dimension).
    """
    if instance.num_dims != 1:
        raise ValueError("the executable reduction covers 1-D knapsack instances")
    max_value = max(instance.values) if instance.values else 1.0
    quality = QualityLevel(name="unit", bits_per_image=1.0)
    catalog = Catalog()
    tasks = []
    for i in range(instance.num_items):
        task = Task(
            task_id=i,
            name=f"item{i}",
            method="knapsack",
            priority=instance.values[i] / max_value if max_value > 0 else 0.0,
            request_rate=1.0,
            min_accuracy=0.0,
            max_latency_s=1.0,
            qualities=(quality,),
        )
        tasks.append(task)
        block = Block(
            block_id=f"item{i}-block",
            dnn_id=f"dnn{i}",
            compute_time_s=0.0,
            memory_gb=float(instance.weights[i][0]),
            training_cost_s=0.0,
        )
        catalog.add_path(
            Path(
                path_id=f"item{i}-path",
                dnn_id=f"dnn{i}",
                task_id=i,
                blocks=(block,),
                accuracy=1.0,
                quality=quality,
            )
        )
    budgets = Budgets(
        compute_time_s=1e9,
        training_budget_s=1.0,
        memory_gb=float(instance.capacities[0]),
        radio_blocks=10 * max(1, instance.num_items),
    )
    return DOTProblem(
        tasks=tuple(tasks),
        catalog=catalog,
        budgets=budgets,
        radio=RadioModel(default_bits_per_rb=1e9),
        alpha=alpha,
    )


def dot_solution_to_selection(solution) -> frozenset[int]:
    """Admitted task ids of a DOT solution = chosen knapsack items."""
    return frozenset(
        task_id for task_id, a in solution.assignments.items() if a.admitted
    )
