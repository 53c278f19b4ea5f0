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
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.problem import DOTProblem
from repro.core.solution import Assignment, DOTSolution
from repro.core.subproblem import BranchItem, solve_branch
from repro.obs.trace import current_tracer
from repro.core.tree import (
    BranchState,
    SolutionTree,
    VectorTree,
    Vertex,
    build_tree,
    build_vector_tree,
)

__all__ = ["OffloaDNNSolver"]


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
    #: control-plane engine: ``"vector"`` runs the numpy-batched tree
    #: construction and selection (the scaled path), ``"scalar"`` the
    #: per-vertex reference, ``"auto"`` picks vector unless a pre-built
    #: scalar tree is supplied.  Both produce bit-identical solutions.
    engine: str = "auto"

    name: str = "OffloaDNN"

    def __post_init__(self) -> None:
        if self.ordering not in ("compute", "memory", "accuracy"):
            raise ValueError(f"unknown ordering {self.ordering!r}")
        if self.explore_branches < 1:
            raise ValueError("explore_branches must be >= 1")
        if self.slice_margin_rbs < 0:
            raise ValueError("slice_margin_rbs must be >= 0")
        if self.engine not in ("auto", "scalar", "vector"):
            raise ValueError(f"unknown engine {self.engine!r}")

    def solve(self, problem: DOTProblem, tree: SolutionTree | None = None) -> DOTSolution:
        """Solve ``problem``; optionally reuse a pre-built tree."""
        if tree is not None or self.engine == "scalar":
            build_start = time.perf_counter()
            prebuilt = tree is not None
            tree = tree if tree is not None else build_tree(problem)
            build_time = (
                tree.build_time_s
                if prebuilt
                else time.perf_counter() - build_start
            )
            return self._finish(problem, tree, build_time)
        vtree = build_vector_tree(problem)
        return self.solve_from_vector_tree(problem, vtree)

    def solve_from_vector_tree(
        self, problem: DOTProblem, vtree: VectorTree
    ) -> DOTSolution:
        """Solve on an already-built (possibly warm-started) vector tree."""
        if self.explore_branches > 1:
            # branch exploration runs on the legacy DFS; materializing
            # the Vertex tree is construction work, so it counts toward
            # the build time, not the solve time
            build_start = time.perf_counter()
            tree = vtree.materialize()
            build_time = vtree.build_time_s + (time.perf_counter() - build_start)
            return self._finish(problem, tree, build_time)
        start = time.perf_counter()
        tracer = current_tracer()
        if tracer.enabled:
            with tracer.span("solver.select_branch", cat="solver", track="solver"):
                chosen = self._select_branch_vector(problem, vtree)
            with tracer.span("solver.allocate", cat="solver", track="solver"):
                solution = self._allocate(problem, chosen)
        else:
            chosen = self._select_branch_vector(problem, vtree)
            solution = self._allocate(problem, chosen)
        solution.solve_time_s = time.perf_counter() - start
        solution.tree_build_time_s = vtree.build_time_s
        solution.solver_name = self.name
        return solution

    def _finish(
        self, problem: DOTProblem, tree: SolutionTree, build_time: float
    ) -> DOTSolution:
        start = time.perf_counter()
        tracer = current_tracer()
        if self.explore_branches == 1:
            if tracer.enabled:
                with tracer.span("solver.select_branch", cat="solver", track="solver"):
                    chosen = self._select_branch(problem, tree)
                with tracer.span("solver.allocate", cat="solver", track="solver"):
                    solution = self._allocate(problem, chosen)
            else:
                chosen = self._select_branch(problem, tree)
                solution = self._allocate(problem, chosen)
        else:
            solution = self._solve_multi_branch(problem, tree)
        solution.solve_time_s = time.perf_counter() - start
        solution.tree_build_time_s = build_time
        solution.solver_name = self.name
        return solution

    def _select_branch_vector(
        self, problem: DOTProblem, vtree: VectorTree
    ) -> list[tuple[int, Vertex | None]]:
        """Vectorized twin of :meth:`_select_branch`.

        Per clique: mask radio-infeasible variants and pick the first
        variant under the configured ordering whose incremental memory —
        the blocks not yet deployed, summed in path order as the scalar
        pass does — still fits.  Under the paper's ``"compute"``
        ordering the first candidate almost always fits, so memory is
        evaluated per *visited* candidate; only the ``"memory"``
        ablation evaluates every candidate's increment.  Only the chosen
        variant's ``Path`` is materialized, so a 10⁵-task solve
        allocates 10⁵ paths instead of millions of vertices.
        """
        radio_blocks = problem.budgets.radio_blocks
        memory_limit = problem.budgets.memory_gb + 1e-12
        deployed: set[str] = set()
        mem_used = 0.0

        def fresh_blocks(clique, i: int) -> list:
            return [
                b for b in clique.base_path(i).blocks if b.block_id not in deployed
            ]

        chosen: list[tuple[int, Vertex | None]] = []
        for clique in vtree.cliques:
            candidates = np.flatnonzero(clique.min_latency_rbs <= radio_blocks).tolist()
            if self.ordering == "memory":
                candidates.sort(
                    key=lambda i: (
                        sum(b.memory_gb for b in fresh_blocks(clique, i)),
                        clique.variant_path_id(i),
                    )
                )
            elif self.ordering == "accuracy":
                candidates.sort(
                    key=lambda i: (-clique.accuracy[i], clique.variant_path_id(i))
                )
            vertex = None
            for i in candidates:
                fresh = fresh_blocks(clique, i)
                if mem_used + sum(b.memory_gb for b in fresh) > memory_limit:
                    continue
                # deploy: accumulate block by block, the scalar float
                # order (a block a path repeats is paid once)
                for block in fresh:
                    if block.block_id not in deployed:
                        deployed.add(block.block_id)
                        mem_used += block.memory_gb
                vertex = Vertex(
                    task=clique.task,
                    path=clique.variant_path(i),
                    bits_per_rb=clique.bits_per_rb,
                )
                break
            chosen.append((clique.task.task_id, vertex))
        return chosen

    def _solve_multi_branch(
        self, problem: DOTProblem, tree: SolutionTree
    ) -> DOTSolution:
        """Evaluate the first ``explore_branches`` feasible branches.

        Branches are enumerated in the tree's lexicographic (leftmost-
        first) order, so the first candidate is exactly the first-branch
        solution; any further candidate can only lower the Eq. (1a)
        cost.
        """
        from repro.core.objective import objective_value

        best: DOTSolution | None = None
        best_cost = float("inf")
        memory_budget = problem.budgets.memory_gb
        cliques = tree.cliques
        found = 0
        prefix: list[tuple[int, Vertex | None]] = []

        def dfs(layer: int, state: BranchState) -> None:
            nonlocal best, best_cost, found
            if found >= self.explore_branches:
                return
            if layer == len(cliques):
                found += 1
                candidate = self._allocate(problem, list(prefix))
                cost = objective_value(problem, candidate)
                if cost < best_cost - 1e-12:
                    best_cost = cost
                    best = candidate
                return
            clique = cliques[layer]
            descended = False
            for vertex in self._ordered(clique.vertices, state):
                if found >= self.explore_branches:
                    return
                extra = state.incremental_memory(vertex)
                if state.memory_gb + extra > memory_budget + 1e-12:
                    continue
                descended = True
                prefix.append((clique.task.task_id, vertex))
                dfs(layer + 1, state.extend(vertex))
                prefix.pop()
            if not descended:
                prefix.append((clique.task.task_id, None))
                dfs(layer + 1, state)
                prefix.pop()

        dfs(0, BranchState())
        assert best is not None, "at least the first branch must be evaluated"
        return best

    def _select_branch(
        self, problem: DOTProblem, tree: SolutionTree
    ) -> list[tuple[int, Vertex | None]]:
        """Pick the leftmost memory-feasible vertex at every layer.

        Returns (task_id, vertex-or-None) in priority order; ``None``
        marks a task with no deployable path (rejected).
        """
        state = BranchState()
        chosen: list[tuple[int, Vertex | None]] = []
        memory_budget = problem.budgets.memory_gb
        for clique in tree.cliques:
            picked: Vertex | None = None
            for vertex in self._ordered(clique.vertices, state):
                if state.memory_gb + state.incremental_memory(vertex) <= memory_budget + 1e-12:
                    picked = vertex
                    break
            if picked is not None:
                state = state.extend(picked)
            chosen.append((clique.task.task_id, picked))
        return chosen

    def _apply_margin(self, problem: DOTProblem, allocation) -> None:
        """Grant up to ``slice_margin_rbs`` extra RBs per admitted task.

        Extra RBs are added one task at a time, in order, as long as the
        total ``Σ z·r`` stays within the pool — a leftover-spreading pass
        like SEM-O-RAN's balanced allocation, but bounded per task.
        """
        pool = float(problem.budgets.radio_blocks)
        used = sum(
            z * r for z, r in zip(allocation.admission, allocation.radio_blocks)
        )
        for _ in range(self.slice_margin_rbs):
            for index, z in enumerate(allocation.admission):
                if z <= 0:
                    continue
                if used + z <= pool + 1e-9:
                    allocation.radio_blocks[index] += 1
                    used += z

    def _ordered(self, vertices: list[Vertex], state: BranchState) -> list[Vertex]:
        """Apply the configured clique ordering.

        Cliques are pre-sorted by compute time, so the paper's ordering
        is a no-op; the ablation orderings re-rank against the current
        branch state.
        """
        if self.ordering == "compute":
            return vertices
        if self.ordering == "memory":
            return sorted(vertices, key=lambda v: (state.incremental_memory(v), v.path.path_id))
        return sorted(vertices, key=lambda v: (-v.accuracy, v.path.path_id))

    def _allocate(
        self, problem: DOTProblem, chosen: list[tuple[int, Vertex | None]]
    ) -> DOTSolution:
        """Run the per-branch (z, r) solver and assemble the solution."""
        placed = [(tid, v) for tid, v in chosen if v is not None]
        items = [
            BranchItem(task=v.task, path=v.path, bits_per_rb=v.bits_per_rb)
            for _, v in placed
        ]
        allocation = solve_branch(items, problem.budgets, self.admission_floor)
        if self.slice_margin_rbs > 0:
            self._apply_margin(problem, allocation)

        solution = DOTSolution()
        for (task_id, vertex), z, r in zip(
            placed, allocation.admission, allocation.radio_blocks
        ):
            assert vertex is not None
            solution.assignments[task_id] = Assignment(
                task=vertex.task,
                path=vertex.path,
                admission_ratio=z,
                radio_blocks=r,
            )
        rejected = [task_id for task_id, vertex in chosen if vertex is None]
        if rejected:
            # one O(T) index build instead of an O(T) scan per rejection
            tasks_by_id = {t.task_id: t for t in problem.tasks}
            for task_id in rejected:
                solution.assignments[task_id] = Assignment(
                    task=tasks_by_id[task_id],
                    path=None,
                    admission_ratio=0.0,
                    radio_blocks=0,
                )
        return solution
