"""Task aggregation: the 10⁴–10⁶-user control plane.

At metro scale most admission requests are *replicas*: thousands of
devices running the same CV method with the same accuracy/latency class,
the same quality set and the same per-RB capacity.  The DOT decision for
two such tasks is interchangeable — they see the same candidate paths
and the same constraints — so the control plane need not carry one tree
clique per device.

:func:`aggregate_problem` groups the tasks of a DOT instance by their
*decision signature* — what the solver reads of a task: its candidate
path tuple, priority, request rate, minimum accuracy, maximum latency,
quality set and bits per RB — and builds a meta-problem over one
representative per group.  The CV method is not in it: the catalog has
already turned the method into the path tuple, and no solver reads it
again.  :class:`AggregateSolver` then

1. runs the first-branch selection on the meta-problem
   (path/quality choice is per *group*, which is exact: every member
   would pick the same variant);
2. builds one branch item per placed group and runs the one admission
   cascade, :func:`~repro.core.subproblem.solve_branch`, with each
   item's member count: each round computes one member's ``(z, r)``
   against the live pools and gives it to as many remaining members as
   the pools allow in one subtraction.  A pool-bound member yields a
   round of one, so the cascade is the per-task one exactly where it
   matters and stays O(#groups) everywhere else;
3. turns the rounds into runs ``(assignment, member ids)``, ids
   ascending: :class:`~repro.core.solution.AssignmentRuns` reads like
   the expanded dict (same keys, order, values, one shared ``Path`` per
   run), builds an ``Assignment`` only on lookup, and sums fold over
   runs.  A placed group's rejected members keep its path at
   ``z = 0``, ``r = 0``, as a per-task solve records a rejected task;
   a group the selection left without a path gets ``None``.

The group cascade is feasibility-preserving by construction; it is
*not* promised bit-identical to the per-task solve when distinct
groups share a priority level (the per-task cascade would interleave
their members by task id, the group cascade keeps groups contiguous).
Without replicas every group is one task and the two solves agree task
by task; otherwise the test suite checks feasibility and
admission-equivalence.

Grouping sorts one numpy column per signature field (Python work is
per group) and keys on the *identity* of the candidate-path tuple, not
its value: two tasks are poolable only when they share the very same
catalog entry, which is how the replicated workloads are built (see
:mod:`repro.workloads.largescale`) and the only case where equality is
O(1) at 10⁶ tasks.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import repeat
from operator import attrgetter

import numpy as np

from repro.core.catalog import Catalog
from repro.core.problem import DOTProblem
from repro.core.solution import Assignment, AssignmentRuns, DOTSolution, Run
from repro.core.subproblem import BranchItem, solve_branch
from repro.core.task import Task
from repro.core.tree import Branch, VectorClique, build_vector_tree, first_branch
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
    and margin spreading are defined on per-task cascades, not on groups.
    """

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
                solution = self._allocate_groups(problem, plan, vtree.cliques, chosen)
        else:
            chosen = first_branch(vtree, problem.budgets)
            solution = self._allocate_groups(problem, plan, vtree.cliques, chosen)
        solution.solve_time_s = time.perf_counter() - start
        solution.tree_build_time_s = build_time
        solution.solver_name = self.name
        return solution

    def _allocate_groups(
        self,
        problem: DOTProblem,
        plan: AggregationPlan,
        cliques: list[VectorClique],
        chosen: Branch,
    ) -> DOTSolution:
        placed = [(clique, pick) for clique, pick in zip(cliques, chosen) if pick >= 0]
        items = [
            BranchItem(
                clique.task, clique.variant_path(pick), clique.bits_per_rb,
                clique.min_latency_rbs(pick),
            )
            for clique, pick in placed
        ]
        weights = [plan.groups[clique.task.task_id].weight for clique, _ in placed]
        allocation = solve_branch(items, problem.budgets, weights)
        rounds = zip(allocation.admission, allocation.radio_blocks, allocation.members)
        paths = (item.path for item in items)
        runs: list[Run] = []
        for clique, pick in zip(cliques, chosen):
            group = plan.groups[clique.task.task_id]
            members, rep = group.member_ids, group.representative
            if pick < 0:
                runs.append((Assignment(rep, None, 0.0, 0), members))
                continue
            path, index = next(paths), 0
            while index < len(members):
                z, r, count = next(rounds)
                runs.append((Assignment(rep, path, z, r), members[index : index + count]))
                index += count
        return DOTSolution(assignments=AssignmentRuns(runs, problem.task))
