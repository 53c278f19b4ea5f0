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
:func:`best_branch` for :class:`~repro.core.optimal.OptimalSolver`,
which compares every leaf — and the solver that composes them.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from repro.core.catalog import Path
from repro.core.objective import objective_value
from repro.core.problem import DOTProblem
from repro.core.solution import Assignment, DOTSolution
from repro.core.subproblem import BranchAllocation, BranchItem, solve_branch
from repro.core.tree import (
    Branch,
    VectorClique,
    VectorTree,
    build_vector_tree,
    first_branch,
)
from repro.obs.trace import current_tracer

__all__ = ["OffloaDNNSolver", "allocate", "best_branch"]


def _apply_margin(pool: float, allocation: BranchAllocation, margin_rbs: int) -> None:
    """Grant up to ``margin_rbs`` extra RBs per admitted task.

    Extra RBs are added one task at a time, in order, as long as the
    slice grid ``Σ r`` stays within the pool — a leftover-spreading pass
    like SEM-O-RAN's balanced allocation, but bounded per task.
    """
    used = sum(allocation.radio_blocks)
    for _ in range(margin_rbs):
        for index, z in enumerate(allocation.admission):
            if z <= 0:
                continue
            if used + 1 <= pool:
                allocation.radio_blocks[index] += 1
                used += 1


class _PlacedItems:
    """A branch's placed layers as decisions, built as they are read.

    Sized, so the water-fill can reject the unread tail in one step once
    the radio pool is spent (:func:`~repro.core.subproblem.solve_branch`):
    a 10⁴-task branch then builds a :class:`BranchItem` for the ≈ 20
    layers the pool admits, not one per layer.
    """

    def __init__(
        self, cliques: list[VectorClique], picks: list[int], paths: list[Path]
    ) -> None:
        self.cliques, self.picks, self.paths = cliques, picks, paths

    def __len__(self) -> int:
        return len(self.paths)

    def __iter__(self) -> Iterator[BranchItem]:
        for clique, pick, path in zip(self.cliques, self.picks, self.paths):
            r_min = clique.min_latency_rbs(pick)
            yield BranchItem(clique.task, path, clique.bits_per_rb, r_min)


def allocate(
    vtree: VectorTree, chosen: Branch, slice_margin_rbs: int = 0
) -> DOTSolution:
    """Run the per-branch (z, r) solver and assemble the solution.

    The one place a walked branch — one pick per layer of ``vtree`` —
    becomes a :class:`DOTSolution`: placed tasks first, in branch order,
    then the tasks the walk left without a path as rejected records.
    Each placed layer's variant path is built once and serves both its
    lazy decision (:class:`_PlacedItems`) and its :class:`Assignment`.
    """
    placed: list[VectorClique] = []
    picks: list[int] = []
    paths: list[Path] = []
    for clique, pick in zip(vtree.cliques, chosen):
        if pick >= 0:
            placed.append(clique)
            picks.append(pick)
            paths.append(clique.variant_path(pick))
    budgets = vtree.problem.budgets
    items = _PlacedItems(placed, picks, paths)
    allocation = solve_branch(items, budgets)
    if slice_margin_rbs > 0:
        _apply_margin(float(budgets.radio_blocks), allocation, slice_margin_rbs)

    solution = DOTSolution()
    assignments = solution.assignments
    for clique, path, z, r in zip(
        placed, paths, allocation.admission, allocation.radio_blocks
    ):
        task = clique.task
        assignments[task.task_id] = Assignment(task, path, z, r)
    for clique, pick in zip(vtree.cliques, chosen):
        if pick < 0:
            task = clique.task
            assignments[task.task_id] = Assignment(task, None, 0.0, 0)
    return solution


def best_branch(vtree: VectorTree, leaves: Iterable[Branch]) -> DOTSolution:
    """The least Eq. (1a) cost among the allocations of ``leaves``.

    ``leaves`` is a :func:`~repro.core.tree.branches` enumeration of
    ``vtree``, which always yields at least one leaf; a later leaf
    replaces the incumbent only by beating its cost.  The
    solution's ``branches_explored`` counts the leaves evaluated.
    """
    best: DOTSolution | None = None
    best_cost = float("inf")
    explored = 0
    for chosen in leaves:
        explored += 1
        candidate = allocate(vtree, chosen)
        cost = objective_value(vtree.problem, candidate)
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

    #: clique ordering criterion (see class docstring)
    ordering: str = "compute"
    #: extra RBs granted to each admitted slice (when the pool allows):
    #: a slice sized at its mean rate runs its uplink at ρ = 1, where
    #: Poisson arrivals queue without bound (ROADMAP's admission-promise
    #: table measures the on-time loss)
    slice_margin_rbs: int = 0

    name: str = "OffloaDNN"

    def __post_init__(self) -> None:
        if self.ordering not in ("compute", "memory", "accuracy"):
            raise ValueError(f"unknown ordering {self.ordering!r}")
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
        margin = self.slice_margin_rbs
        if tracer.enabled:
            with tracer.span("solver.select_branch", cat="solver", track="solver"):
                chosen = first_branch(vtree, budgets, self.ordering)
            with tracer.span("solver.allocate", cat="solver", track="solver"):
                solution = allocate(vtree, chosen, margin)
        else:
            chosen = first_branch(vtree, budgets, self.ordering)
            solution = allocate(vtree, chosen, margin)
        solution.solve_time_s = time.perf_counter() - start
        solution.tree_build_time_s = vtree.build_time_s
        solution.solver_name = self.name
        return solution
