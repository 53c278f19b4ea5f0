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
from dataclasses import replace

from repro.core.catalog import Block, Catalog
from repro.core.problem import Budgets, DOTProblem

__all__ = ["discount_problem", "deployed_block_ids"]


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
