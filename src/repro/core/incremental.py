"""Dynamic (incremental) DOT — the extension sketched in Sec. III-B.

The paper: *"it is indeed enough to consider the training cost and
memory occupancy of already-deployed DNN blocks equal to zero, discount
the radio, compute, and memory capacity, and only account for the
additional blocks and RBs that may be needed by the set of newly
requested tasks."*

:func:`discount_problem` applies exactly that transformation to a DOT
instance, given the state of a running edge platform (deployed block
ids and consumed capacities).  Solving the discounted instance with any
solver then yields the incremental decision for newly arrived tasks —
with already-deployed blocks naturally preferred, since they cost
nothing.

The runtime realization of the same idea lives in
:class:`repro.edge.controller.OffloaDNNController`, which pulls the
*remaining* capacities from the VIM before every solve; this module
provides the problem-level transformation for offline studies and for
solvers that are not wired to a live platform.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

from repro.core.catalog import Block, Catalog, Path
from repro.core.heuristic import OffloaDNNSolver
from repro.core.problem import Budgets, DOTProblem
from repro.core.solution import DOTSolution
from repro.core.task import Task
from repro.core.tree import VectorClique, VectorTree, build_cliques

__all__ = ["discount_problem", "deployed_block_ids", "WarmStartSolver"]


def deployed_block_ids(solution) -> frozenset[str]:
    """Block ids deployed by an existing solution's admitted tasks."""
    return frozenset(solution.active_blocks())


def _discount_block(block: Block, deployed: frozenset[str]) -> Block:
    if block.block_id not in deployed:
        return block
    return replace(block, memory_gb=0.0, training_cost_s=0.0)


def discount_problem(
    problem: DOTProblem,
    deployed: frozenset[str] | set[str],
    used_memory_gb: float = 0.0,
    used_compute_s: float = 0.0,
    used_radio_blocks: float = 0.0,
) -> DOTProblem:
    """The incremental DOT instance for newly requested tasks.

    Parameters
    ----------
    problem:
        The instance describing the *new* tasks and their candidate
        paths (which may reference blocks already at the edge).
    deployed:
        Block ids already active at the edge: their memory and training
        costs become zero.
    used_memory_gb, used_compute_s, used_radio_blocks:
        Capacity already consumed by previously admitted tasks,
        subtracted from the budgets.
    """
    deployed = frozenset(deployed)
    new_catalog = Catalog()
    # keyed by the Block value itself: two paths may carry *different*
    # Block objects sharing a block_id (e.g. differently-costed
    # variants); a block_id-keyed cache would silently return whichever
    # was seen first
    block_cache: dict[Block, Block] = {}
    for task_id, paths in problem.catalog.paths_by_task.items():
        for path in paths:
            blocks = tuple(
                block_cache.setdefault(b, _discount_block(b, deployed))
                for b in path.blocks
            )
            new_catalog.add_path(replace(path, blocks=blocks))

    budgets = problem.budgets
    # a saturated platform yields a valid zero-headroom instance: every
    # solver then rejects all tasks, which is the correct online answer
    # (an exception here would crash churn loops at momentary peaks)
    remaining_memory = max(0.0, budgets.memory_gb - used_memory_gb)
    remaining_compute = max(0.0, budgets.compute_time_s - used_compute_s)
    # explicit floor with a tolerance: plain int() truncation would eat
    # a whole RB whenever Σ z·r accumulates to fractionally below an
    # integer (e.g. 12.999999999 -> 37 free, not 38)
    remaining_radio = max(
        0, math.floor(budgets.radio_blocks - used_radio_blocks + 1e-9)
    )
    return DOTProblem(
        tasks=problem.tasks,
        catalog=new_catalog,
        budgets=Budgets(
            compute_time_s=remaining_compute,
            training_budget_s=budgets.training_budget_s,
            memory_gb=remaining_memory,
            radio_blocks=remaining_radio,
        ),
        radio=problem.radio,
        alpha=problem.alpha,
    )


# ---------------------------------------------------------------------------
# Warm start across arrival/departure churn
# ---------------------------------------------------------------------------


@dataclass
class WarmStartSolver:
    """Reuses surviving per-task cliques across churn re-solves.

    A task's clique — its feasibility-filtered, sorted (path × quality)
    variants — depends only on the task itself, its candidate paths and
    its radio capacity ``B(σ_τ)``, not on the other tasks or the edge
    budgets (the radio filter is applied per solve).  So when the active
    set changes by a few arrivals/departures, only the *new* tasks need
    clique construction — all of them in one batched
    :func:`~repro.core.tree.build_cliques` call; everything else is
    tree assembly plus the selection/allocation passes.

    Entries are validated by task equality, path-tuple identity and the
    task's bits-per-RB — a changed task definition or catalog rebuilds
    its clique transparently.
    """

    base: OffloaDNNSolver = field(default_factory=OffloaDNNSolver)

    def __post_init__(self) -> None:
        if self.base.explore_branches != 1:
            raise ValueError(
                "warm start supports the first-branch rule only "
                "(explore_branches == 1)"
            )
        self._entries: dict[int, VectorClique] = {}
        #: churn statistics of the most recent solve
        self.last_reused = 0
        self.last_built = 0

    @property
    def name(self) -> str:
        return self.base.name

    @property
    def cached_tasks(self) -> int:
        return len(self._entries)

    def solve(self, problem: DOTProblem) -> DOTSolution:
        start = time.perf_counter()
        cliques: list[VectorClique | None] = []
        misses: list[tuple[Task, tuple[Path, ...], float]] = []
        for task in problem.tasks_by_priority():
            paths = problem.catalog.paths_for(task)
            bits_per_rb = problem.radio.bits_per_rb(task)
            clique = self._entries.get(task.task_id)
            if (
                clique is None
                or clique.source_paths is not paths
                or clique.bits_per_rb != bits_per_rb
                or clique.task != task
            ):
                clique = None
                misses.append((task, paths, bits_per_rb))
            cliques.append(clique)
        # every miss goes through one batched build
        built = iter(build_cliques(misses))
        for i, clique in enumerate(cliques):
            if clique is None:
                clique = cliques[i] = next(built)
                self._entries[clique.task.task_id] = clique
        reused = len(cliques) - len(misses)
        self.last_reused, self.last_built = reused, len(misses)
        vtree = VectorTree(
            problem=problem,
            cliques=cliques,
            build_time_s=time.perf_counter() - start,
            cached_cliques=reused,
        )
        return self.base.solve_from_vector_tree(problem, vtree)

    def forget(self, task_id: int) -> None:
        """Drop a departed task's clique."""
        self._entries.pop(task_id, None)

    def prune(self, active_task_ids) -> None:
        """Keep only the given tasks' cliques (bulk departure)."""
        keep = set(active_task_ids)
        for task_id in list(self._entries):
            if task_id not in keep:
                del self._entries[task_id]

    def clear(self) -> None:
        self._entries.clear()
