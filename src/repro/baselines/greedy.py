"""Greedy no-sharing baseline for ablations.

Like OffloaDNN it admits tasks in priority order with fractional
admission, but it ignores block sharing: every task deploys dedicated
copies of its cheapest feasible path's blocks.  Comparing it against
OffloaDNN isolates the contribution of block sharing (innovation 1)
from the contribution of fractional admission.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable

from repro.core.heuristic import allocate
from repro.core.problem import DOTProblem
from repro.core.solution import DOTSolution
from repro.core.tree import Branch, build_vector_tree

__all__ = ["GreedyNoSharingSolver"]


@dataclass
class GreedyNoSharingSolver:
    """Priority-greedy fractional admission without block sharing."""

    name: str = "greedy-no-sharing"
    admission_floor: float = 1e-6
    #: timestamp source for ``solve_time_s`` (injectable for testing)
    clock: Callable[[], float] = time.perf_counter

    def solve(self, problem: DOTProblem) -> DOTSolution:
        vtree = build_vector_tree(problem)
        start = self.clock()
        remaining_memory = problem.budgets.memory_gb
        chosen: Branch = []
        for clique in vtree.cliques:
            picked = None
            for item in clique.items(problem.budgets.radio_blocks):
                memory = item.path.memory_gb
                if memory <= remaining_memory + 1e-12:
                    picked = item
                    remaining_memory -= memory
                    break
            chosen.append((clique.task.task_id, picked))
        solution = allocate(problem, chosen, self.admission_floor)
        for task_id, assignment in list(solution.assignments.items()):
            path = assignment.path
            if path is None:
                continue
            blocks = tuple(
                replace(
                    b,
                    block_id=f"dedicated:task{task_id}:{b.block_id}",
                    dnn_id=f"dedicated:task{task_id}:{b.dnn_id}",
                )
                for b in path.blocks
            )
            solution.assignments[task_id] = replace(
                assignment, path=replace(path, blocks=blocks)
            )
        solution.solve_time_s = self.clock() - start
        solution.tree_build_time_s = vtree.build_time_s
        solution.solver_name = self.name
        return solution
