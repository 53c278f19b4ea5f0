"""The OffloaDNN heuristic (Sec. IV-B).

OffloaDNN traverses the weighted tree from the root and, at every layer,
selects the *first* vertex of the clique — the feasible path with the
smallest inference compute time — whose incremental memory still fits
the budget.  The rationale: the total inference term of Eq. (1a) is
minimized when every task's compute time is minimal, and the clique
ordering makes that the leftmost branch.  The traversal is ``O(T²)``
(each layer scans at most one clique and block-set updates are bounded),
at the price of sub-optimality in the training-cost term, the trade-off
the paper's Fig. 8 documents.

After the branch is fixed, the admission ratios and RB allocations come
from the structured per-branch solver (:mod:`repro.core.subproblem`).

The traversal itself is :func:`repro.core.tree.first_branch`; this module
holds what follows it — :func:`allocate`, the one branch → solution
assembly every tree-walking solver and baseline shares, and
:func:`best_branch` for solvers that compare several leaves — and the
solver that composes them.
"""

from __future__ import annotations

import time
from collections.abc import Iterable
from dataclasses import dataclass
from itertools import islice

from repro.core.objective import objective_value
from repro.core.problem import DOTProblem
from repro.core.solution import Assignment, DOTSolution
from repro.core.subproblem import BranchAllocation, solve_branch
from repro.core.tree import (
    Branch,
    VectorClique,
    branches,
    build_vector_tree,
    first_branch,
)
from repro.obs.trace import current_tracer

__all__ = ["OffloaDNNSolver", "allocate", "best_branch"]


def _apply_margin(pool: float, allocation: BranchAllocation, margin_rbs: int) -> None:
    """Grant up to ``margin_rbs`` extra RBs per admitted task.

    Extra RBs are added one task at a time, in order, as long as the
    total ``Σ z·r`` stays within the pool — a leftover-spreading pass
    like SEM-O-RAN's balanced allocation, but bounded per task.
    """
    used = sum(z * r for z, r in zip(allocation.admission, allocation.radio_blocks))
    for _ in range(margin_rbs):
        for index, z in enumerate(allocation.admission):
            if z <= 0:
                continue
            if used + z <= pool + 1e-9:
                allocation.radio_blocks[index] += 1
                used += z


def allocate(
    problem: DOTProblem,
    chosen: Branch,
    admission_floor: float = 1e-6,
    slice_margin_rbs: int = 0,
) -> DOTSolution:
    """Run the per-branch (z, r) solver and assemble the solution.

    The one place a walked branch becomes a :class:`DOTSolution`: placed
    tasks first, in branch order, then the tasks the walk left without a
    path as rejected records.
    """
    placed = [(task_id, item) for task_id, item in chosen if item is not None]
    allocation = solve_branch(
        [item for _, item in placed], problem.budgets, admission_floor
    )
    if slice_margin_rbs > 0:
        _apply_margin(float(problem.budgets.radio_blocks), allocation, slice_margin_rbs)

    solution = DOTSolution()
    for (task_id, item), z, r in zip(
        placed, allocation.admission, allocation.radio_blocks
    ):
        solution.assignments[task_id] = Assignment(
            task=item.task, path=item.path, admission_ratio=z, radio_blocks=r
        )
    for task_id, item in chosen:
        if item is None:
            solution.assignments[task_id] = Assignment(
                task=problem.task(task_id),
                path=None,
                admission_ratio=0.0,
                radio_blocks=0,
            )
    return solution


def best_branch(
    problem: DOTProblem,
    leaves: Iterable[Branch],
    admission_floor: float = 1e-6,
    slice_margin_rbs: int = 0,
) -> DOTSolution:
    """The least Eq. (1a) cost among the allocations of ``leaves``.

    ``leaves`` is a (prefix of a) :func:`~repro.core.tree.branches`
    enumeration, which always yields at least one leaf; a later leaf
    replaces the incumbent only by beating its cost.  The solution's
    ``branches_explored`` counts the leaves evaluated.
    """
    best: DOTSolution | None = None
    best_cost = float("inf")
    explored = 0
    for chosen in leaves:
        explored += 1
        candidate = allocate(problem, chosen, admission_floor, slice_margin_rbs)
        cost = objective_value(problem, candidate)
        if cost < best_cost - 1e-12:
            best_cost = cost
            best = candidate
    assert best is not None, "at least the first branch must be evaluated"
    best.branches_explored = explored
    return best


@dataclass
class OffloaDNNSolver:
    """First-branch weighted-tree heuristic for the DOT problem.

    ``ordering`` selects how vertices are ranked within each clique:
    ``"compute"`` (the paper's inference-compute-time ordering),
    ``"memory"`` (incremental memory — an ablation) or ``"accuracy"``
    (highest accuracy first — another ablation).
    """

    #: minimum admission ratio below which a task is rejected outright
    admission_floor: float = 1e-6
    #: clique ordering criterion (see class docstring)
    ordering: str = "compute"
    #: number of (lexicographically first) branches to evaluate; 1 is the
    #: paper's first-branch rule, larger values trade runtime for cost
    explore_branches: int = 1
    #: extra RBs granted to each admitted slice (when the pool allows),
    #: providing headroom against channel fading — the minimal
    #: allocation runs slices at 100% utilization, which is unstable
    #: under any sustained throughput loss
    slice_margin_rbs: int = 0

    name: str = "OffloaDNN"

    def __post_init__(self) -> None:
        if self.ordering not in ("compute", "memory", "accuracy"):
            raise ValueError(f"unknown ordering {self.ordering!r}")
        if self.explore_branches < 1:
            raise ValueError("explore_branches must be >= 1")
        if self.slice_margin_rbs < 0:
            raise ValueError("slice_margin_rbs must be >= 0")

    def solve(
        self, problem: DOTProblem, memo: dict[int, VectorClique] | None = None
    ) -> DOTSolution:
        """Solve ``problem``.

        ``memo`` is the caller's clique memo across re-solves (see
        :func:`~repro.core.tree.build_vector_tree`); the solution is the
        same with and without it.
        """
        vtree = build_vector_tree(problem, memo)
        start = time.perf_counter()
        tracer = current_tracer()
        budgets = problem.budgets
        floor, margin = self.admission_floor, self.slice_margin_rbs
        if self.explore_branches > 1:
            # the first leaf is exactly the first-branch solution; any
            # further candidate can only lower the Eq. (1a) cost
            leaves = islice(
                branches(vtree, budgets, self.ordering), self.explore_branches
            )
            solution = best_branch(problem, leaves, floor, margin)
        elif tracer.enabled:
            with tracer.span("solver.select_branch", cat="solver", track="solver"):
                chosen = first_branch(vtree, budgets, self.ordering)
            with tracer.span("solver.allocate", cat="solver", track="solver"):
                solution = allocate(problem, chosen, floor, margin)
        else:
            chosen = first_branch(vtree, budgets, self.ordering)
            solution = allocate(problem, chosen, floor, margin)
        solution.solve_time_s = time.perf_counter() - start
        solution.tree_build_time_s = vtree.build_time_s
        solution.solver_name = self.name
        return solution
