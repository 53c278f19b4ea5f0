"""Planned = ticketed: every task a solver admits holds its ticket, as planned.

The solvers count the radio pool on the slice grid the edge holds (every
admitted task keeps all ``r`` RBs of its slice, Σ r ≤ R), so
``admission_tickets`` reads each ticket off the solution and never turns
an admitted task away.  Checked over every workload builder and rate,
the harness's replicated deployments and random problems, for the
per-task solver at margins 0, 2 and 10 and for the population solver.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.core.aggregate import AggregateSolver
from repro.core.heuristic import OffloaDNNSolver
from repro.edge.controller import AdmissionTicket, admission_tickets
from repro.serving import ServingRuntime
from repro.workloads.largescale import (
    RequestRate,
    large_scale_problem,
    replicated_large_scale_problem,
)
from repro.workloads.smallscale import serving_small_scale_problem, small_scale_problem
from tests.oracles import replicated_serving_problem
from tests.test_core_vectorized import random_problem
from tests.test_property_invariants import dot_problems

SOLVERS = {
    "m0": OffloaDNNSolver(),
    "m2": OffloaDNNSolver(slice_margin_rbs=2),
    "m10": OffloaDNNSolver(slice_margin_rbs=10),
    "aggregate": AggregateSolver(),
}

PROBLEMS = {
    **{f"small{t}": lambda t=t: small_scale_problem(t) for t in range(1, 6)},
    **{f"serving{t}": lambda t=t: serving_small_scale_problem(t) for t in range(1, 6)},
    **{f"table4-{r.label}": lambda r=r: large_scale_problem(r) for r in RequestRate},
    **{
        f"table4-{r.label}-x5": lambda r=r: replicated_large_scale_problem(r, 5)
        for r in RequestRate
    },
    "serving-x20": lambda: replicated_serving_problem(20),
    **{f"random{seed}": lambda seed=seed: random_problem(seed) for seed in range(40)},
}


def _assert_planned_is_ticketed(problem, solution, tickets) -> None:
    assert list(tickets) == [task.task_id for task in problem.tasks]
    held = 0
    for task in problem.tasks:
        planned, ticket = solution.assignment(task), tickets[task.task_id]
        assert ticket.admitted == planned.admitted, task.task_id
        if planned.admitted:
            assert ticket == AdmissionTicket(
                task.task_id, True, planned.admission_ratio, planned.admitted_rate,
                planned.radio_blocks, planned.path.path_id,
            )
            held += ticket.radio_blocks
    assert held == solution.total_radio_blocks <= problem.budgets.radio_blocks


@pytest.mark.parametrize("name", PROBLEMS)
def test_planned_is_ticketed(name):
    problem = PROBLEMS[name]()
    for solver in SOLVERS.values():
        runtime = ServingRuntime.from_problem(problem, solver=solver)
        _assert_planned_is_ticketed(problem, runtime.solution, runtime.tickets)


@given(dot_problems())
@settings(max_examples=30, deadline=None)
def test_planned_is_ticketed_on_random_problems(problem):
    for solver in SOLVERS.values():
        solution = solver.solve(problem)
        _assert_planned_is_ticketed(problem, solution, admission_tickets(problem, solution))


@pytest.mark.parametrize("solver", ["m0", "m2", "aggregate"])
def test_the_tasks_the_old_radio_count_lost_hold_their_slices(solver):
    """Counted as Σ z·r, both solvers admitted 14 tasks at T = 20 HIGH
    (Σ r = 104) and 100 at T = 100 (Σ r = 105): the slice grid could not
    hold task 13 (z 0.667) and task 82 (p 0.95, z 1), and the controller
    dropped them without a trace.  On the grid task 13 gets its slice at
    r = 4, the lexicographic optimum, and task 82 keeps its own."""
    solve = SOLVERS[solver].solve
    problem = large_scale_problem(RequestRate.HIGH)
    tickets = admission_tickets(problem, solve(problem))
    assert tickets[13] == AdmissionTicket(
        13, True, 8 / 15, 4.0, 4, "rn18:task13:CONFIG A-pruned"
    )
    assert sum(
        t.admission_ratio * problem.task(t.task_id).priority for t in tickets.values()
    ) == pytest.approx(8.913333, abs=1e-6)

    problem = replicated_large_scale_problem(RequestRate.HIGH, 5)
    tickets = admission_tickets(problem, solve(problem))
    assert tickets[82] == AdmissionTicket(82, True, 1.0, 7.5, 8, "rn18:task2:CONFIG A-pruned")
    assert sum(
        t.admission_ratio * problem.task(t.task_id).priority for t in tickets.values()
    ) == pytest.approx(12.03, abs=1e-6)
