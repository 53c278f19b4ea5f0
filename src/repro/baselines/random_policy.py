"""Random feasible path selection — a sanity-check lower baseline."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.core.heuristic import allocate
from repro.core.problem import DOTProblem
from repro.core.solution import DOTSolution
from repro.core.tree import Branch, BranchState, build_vector_tree

__all__ = ["RandomPathSolver"]


@dataclass
class RandomPathSolver:
    """Picks a uniformly random memory-feasible vertex at each layer."""

    seed: int = 0
    name: str = "random"
    admission_floor: float = 1e-6
    #: timestamp source for ``solve_time_s`` (injectable for testing)
    clock: Callable[[], float] = time.perf_counter

    def solve(self, problem: DOTProblem) -> DOTSolution:
        vtree = build_vector_tree(problem)
        start = self.clock()
        rng = np.random.default_rng(self.seed)
        budgets = problem.budgets
        state = BranchState()
        chosen: Branch = []
        for clique in vtree.cliques:
            fitting = [
                item
                for item in clique.items(budgets.radio_blocks)
                if state.fits(item.path, budgets.memory_gb)
            ]
            picked = None
            if fitting:
                picked = fitting[rng.integers(len(fitting))]
                state = state.extend(picked.path)
            chosen.append((clique.task.task_id, picked))
        solution = allocate(problem, chosen, self.admission_floor)
        solution.solve_time_s = self.clock() - start
        solution.tree_build_time_s = vtree.build_time_s
        solution.solver_name = self.name
        return solution
