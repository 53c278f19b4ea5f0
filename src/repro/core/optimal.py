"""Exhaustive branch enumeration — the DOT optimum benchmark (Sec. IV-B).

Traverses *every* branch of the weighted tree with a depth-first search,
halting a branch as soon as its cumulative memory exceeds ``M`` (the
paper's pruning rule), solving the per-branch ``(z, r)`` subproblem at
each leaf, and returning the branch with the least Eq. (1a) cost.

Complexity is ``O(N_max^T · T²)`` — practical only for small scenarios,
which is exactly the Fig. 6 comparison.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.heuristic import best_branch
from repro.core.problem import DOTProblem
from repro.core.solution import DOTSolution
from repro.core.tree import branches, build_vector_tree

__all__ = ["OptimalSolver"]


@dataclass
class OptimalSolver:
    """Exact solver by full tree traversal.

    ``allow_reject`` adds an explicit "serve no path" option per layer;
    the paper's tree does not include it (rejection emerges from
    ``z = 0`` in the subproblem), so it defaults to off.  ``max_branches``
    guards against accidentally launching astronomically large searches.
    """

    allow_reject: bool = False
    max_branches: int = 20_000_000
    admission_floor: float = 1e-6
    name: str = "Optimum"

    def solve(self, problem: DOTProblem) -> DOTSolution:
        vtree = build_vector_tree(problem)
        start = time.perf_counter()
        bound = vtree.num_branches(self.allow_reject)
        if bound > self.max_branches:
            raise ValueError(
                f"tree has ~{bound} branches, above the max_branches guard "
                f"({self.max_branches}); use the OffloaDNN heuristic instead"
            )
        leaves = branches(vtree, problem.budgets, allow_reject=self.allow_reject)
        solution = best_branch(problem, leaves, self.admission_floor)
        solution.solve_time_s = time.perf_counter() - start
        solution.tree_build_time_s = vtree.build_time_s
        solution.solver_name = self.name
        return solution
