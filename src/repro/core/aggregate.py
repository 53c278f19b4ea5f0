"""Task aggregation: the 10⁴–10⁶-user control plane.

At metro scale most admission requests are *replicas*: thousands of
devices running the same CV method with the same accuracy/latency class,
the same quality set and the same per-RB capacity.  The DOT decision for
two such tasks is interchangeable — they see the same candidate paths
and the same constraints — so the control plane need not carry one tree
clique per device.

:func:`aggregate_problem` groups the tasks of a DOT instance by their
*decision signature* and builds a meta-problem over one representative
per group.  :class:`AggregateSolver` then

1. runs the first-branch selection on the meta-problem
   (path/quality choice is per *group*, which is exact: every member
   would pick the same variant);
2. replays the admission cascade over the group weights: each round
   computes one member's ``(z, r)`` against the live pools with the
   closed-form subproblem and assigns it to as many remaining members
   as the pools allow in one subtraction.  A pool-bound member yields a
   run of one, so the replay degrades to the per-task cascade exactly
   where it matters and stays O(#groups) everywhere else.  Once the
   radio pool is spent (``subproblem._radio_spent``) a round takes the
   scan's known result ``(0.0, 0)`` without running it;
3. returns the rounds as runs ``(assignment, member ids)``, ids ascending:
   :class:`~repro.core.solution.AssignmentRuns` reads like the expanded
   dict (same keys, order, values, one shared ``Path`` per run), builds
   an ``Assignment`` only on lookup, and sums fold over runs.

The replay is feasibility-preserving by construction; it is *not*
promised bit-identical to the per-task solve when distinct
groups share a priority level (the per-task cascade would interleave
their members by task id, the replay keeps groups contiguous).  The
test suite checks feasibility and admission-equivalence instead.

Grouping sorts one numpy column per task field (Python work is per
group) and keys on the *identity* of the candidate-path tuple, not its
value: two tasks are poolable only when they share the very same
catalog entry, which is how the replicated workloads are built (see
:mod:`repro.workloads.largescale`) and the only case where equality is
O(1) at 10⁶ tasks.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from itertools import repeat
from operator import attrgetter

import numpy as np

from repro.core.catalog import Catalog
from repro.core.problem import DOTProblem
from repro.core.solution import Assignment, AssignmentRuns, DOTSolution, Run
from repro.core.subproblem import _best_admission_for_item, _radio_spent
from repro.core.task import Task
from repro.core.tree import Branch, build_vector_tree, first_branch
from repro.obs.trace import current_tracer

__all__ = ["TaskGroup", "AggregationPlan", "aggregate_problem", "AggregateSolver"]


@dataclass(frozen=True)
class TaskGroup:
    """Tasks sharing one decision signature."""

    representative: Task
    #: member task ids, ascending (includes the representative)
    member_ids: tuple[int, ...]

    @property
    def weight(self) -> int:
        return len(self.member_ids)


@dataclass(frozen=True)
class AggregationPlan:
    """The meta-problem plus the bookkeeping to expand its solution."""

    problem: DOTProblem
    meta_problem: DOTProblem
    #: representative task id -> group
    groups: dict[int, TaskGroup]

    @property
    def num_groups(self) -> int:
        return len(self.groups)

    @property
    def compression(self) -> float:
        """Tasks per meta-task (1.0 = no aggregation happened)."""
        return len(self.problem.tasks) / max(1, len(self.groups))


def aggregate_problem(problem: DOTProblem) -> AggregationPlan:
    """Group interchangeable tasks into a meta-problem of representatives."""
    tasks, radio, paths_by_task = problem.tasks, problem.radio, problem.catalog.paths_by_task
    count = len(tasks)

    def column(name: str, dtype: type = np.float64) -> np.ndarray:
        return np.fromiter(map(attrgetter(name), tasks), dtype, count)

    def value_codes(name: str) -> np.ndarray:
        # objects are told apart by identity first, so only the distinct
        # ones are hashed (a ``qualities`` tuple hashes every level in it)
        ids = np.fromiter(map(id, map(attrgetter(name), tasks)), np.int64, count)
        _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
        codes: dict = {}
        distinct = [codes.setdefault(getattr(tasks[i], name), len(codes)) for i in first]
        return np.array(distinct)[inverse]

    ids, priority = column("task_id", np.int64), column("priority")
    id_list = ids.tolist()
    # the decision signature, one column per field
    columns = [
        np.fromiter(map(id, map(paths_by_task.get, id_list)), np.int64, count),
        value_codes("method"),
        priority,
        column("request_rate"),
        column("min_accuracy"),
        column("max_latency_s"),
        value_codes("qualities"),
    ]
    if overrides := radio.per_task_bits_per_rb:
        bits_per_rb = map(overrides.get, id_list, repeat(radio.default_bits_per_rb))
        columns.append(np.fromiter(bits_per_rb, np.float64, count))
    # tasks equal in every column end up adjacent, ids ascending inside a
    # group, so its smallest id comes first and represents it
    order = np.lexsort((ids, *columns))
    differs = np.arange(count) == 0
    for values in columns:
        in_order = values[order]
        differs[1:] |= in_order[1:] != in_order[:-1]
    starts = np.flatnonzero(differs)
    first = order[starts]
    sorted_ids, bounds = ids[order].tolist(), starts.tolist() + [count]

    reps: list[Task] = []
    groups: dict[int, TaskGroup] = {}
    meta_catalog = Catalog()
    # groups in the order the cascade visits them: descending priority,
    # ties by representative id
    for g in np.lexsort((ids[first], -priority[first])).tolist():
        rep = tasks[first[g]]
        reps.append(rep)
        # assign the shared tuple directly to keep its identity (clique
        # memos and re-aggregation key on it)
        meta_catalog.paths_by_task[rep.task_id] = paths_by_task[rep.task_id]
        groups[rep.task_id] = TaskGroup(
            representative=rep,
            member_ids=tuple(sorted_ids[bounds[g] : bounds[g + 1]]),
        )
    meta_problem = DOTProblem(
        tasks=tuple(reps),
        catalog=meta_catalog,
        budgets=problem.budgets,
        radio=problem.radio,
        alpha=problem.alpha,
    )
    return AggregationPlan(problem=problem, meta_problem=meta_problem, groups=groups)


@dataclass
class AggregateSolver:
    """OffloaDNN over meta-tasks, returned as per-task assignment runs.

    First branch in the paper's compute ordering only: branch exploration
    and margin spreading are defined on per-task cascades, not weighted
    replays.
    """

    #: minimum admission ratio below which a task is rejected outright
    admission_floor: float = 1e-6
    name: str = "OffloaDNN-aggregated"
    #: plan of the most recent solve, for inspection
    last_plan: AggregationPlan | None = field(default=None, repr=False)

    def solve(self, problem: DOTProblem) -> DOTSolution:
        build_start = time.perf_counter()
        plan = aggregate_problem(problem)
        self.last_plan = plan
        vtree = build_vector_tree(plan.meta_problem)
        build_time = time.perf_counter() - build_start

        start = time.perf_counter()
        tracer = current_tracer()
        if tracer.enabled:
            with tracer.span("solver.select_branch", cat="solver", track="solver"):
                chosen = first_branch(vtree, problem.budgets)
            with tracer.span("solver.allocate", cat="solver", track="solver"):
                solution = self._allocate_groups(problem, plan, chosen)
        else:
            chosen = first_branch(vtree, problem.budgets)
            solution = self._allocate_groups(problem, plan, chosen)
        solution.solve_time_s = time.perf_counter() - start
        solution.tree_build_time_s = build_time
        solution.solver_name = self.name
        return solution

    def _allocate_groups(
        self, problem: DOTProblem, plan: AggregationPlan, chosen: Branch
    ) -> DOTSolution:
        budgets = problem.budgets
        floor_z = self.admission_floor
        remaining_radio = float(budgets.radio_blocks)
        remaining_compute = float(budgets.compute_time_s)
        runs: list[Run] = []
        for rep_id, item in chosen:
            group = plan.groups[rep_id]
            members, rep = group.member_ids, group.representative
            if item is None:
                runs.append((Assignment(rep, None, 0.0, 0), members))
                continue
            compute_per_z = item.task.request_rate * item.path.compute_time_s
            index = 0
            while index < len(members):
                if _radio_spent(remaining_radio):
                    z, r = 0.0, 0
                else:
                    z, r = _best_admission_for_item(
                        item, remaining_radio, remaining_compute, budgets.radio_blocks
                    )
                if z < floor_z:
                    break
                radio_demand = z * r
                compute_demand = z * compute_per_z
                run = len(members) - index
                if radio_demand > 0:
                    run = min(
                        run, math.floor(remaining_radio / radio_demand + 1e-9)
                    )
                if compute_demand > 0:
                    run = min(
                        run, math.floor(remaining_compute / compute_demand + 1e-9)
                    )
                # the member the closed form was computed for always fits
                run = max(1, run)
                admitted = Assignment(rep, item.path, z, r)
                runs.append((admitted, members[index : index + run]))
                remaining_radio = max(0.0, remaining_radio - run * radio_demand)
                remaining_compute = max(
                    0.0, remaining_compute - run * compute_demand
                )
                index += run
            if index < len(members):
                runs.append((Assignment(rep, None, 0.0, 0), members[index:]))
        return DOTSolution(assignments=AssignmentRuns(runs, problem.task))
