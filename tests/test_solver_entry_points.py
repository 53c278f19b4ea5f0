"""Every solver entry point returns a (1b)-(1g)-clean solution.

One pipeline, many ways in: the stage functions are shared, so this
walks every public ``solve`` over the same problem grid and lets
``check_constraints`` judge each result.
"""

from __future__ import annotations

from itertools import product

import pytest

from repro.baselines.greedy import GreedyNoSharingSolver
from repro.baselines.random_policy import RandomPathSolver
from repro.baselines.semoran import SemORANSolver
from repro.core.aggregate import AggregateSolver
from repro.core.heuristic import OffloaDNNSolver
from repro.core.objective import check_constraints
from repro.core.optimal import OptimalSolver
from repro.core.tree import build_vector_tree
from repro.workloads.largescale import RequestRate, large_scale_problem
from repro.workloads.smallscale import small_scale_problem
from tests.test_core_vectorized import random_problem

#: exhaustive enumeration runs only where the whole tree is this small
OPTIMAL_CAP = 5_000

PROBLEMS = {
    **{f"random{seed}": lambda seed=seed: random_problem(seed) for seed in range(12)},
    **{f"random{seed}-3tasks": lambda seed=seed: random_problem(seed, 3) for seed in range(4)},
    **{f"small{t}": lambda t=t: small_scale_problem(t) for t in range(1, 6)},
    **{f"table4-{rate.label}": lambda rate=rate: large_scale_problem(rate) for rate in RequestRate},
}


def _memo_warm(problem):
    memo: dict = {}
    solver = OffloaDNNSolver()
    solver.solve(problem, memo=memo)
    return solver.solve(problem, memo=memo)


def entry_points(problem):
    """``(label, solve)`` for every way into the solver that remains."""
    for ordering, explore, margin in product(
        ("compute", "memory", "accuracy"), (1, 3), (0, 2)
    ):
        solver = OffloaDNNSolver(
            ordering=ordering, explore_branches=explore, slice_margin_rbs=margin
        )
        yield f"offloadnn/{ordering}/k{explore}/m{margin}", solver.solve
    if build_vector_tree(problem).num_branches(allow_reject=True) <= OPTIMAL_CAP:
        yield "optimal", OptimalSolver().solve
        yield "optimal/allow_reject", OptimalSolver(allow_reject=True).solve
    yield "aggregate", AggregateSolver().solve
    yield "memo-warm", _memo_warm
    yield "greedy", GreedyNoSharingSolver().solve
    yield "random", RandomPathSolver(seed=1).solve
    yield "sem-o-ran", SemORANSolver().solve


@pytest.mark.parametrize("name", PROBLEMS)
def test_every_entry_point_is_feasible(name):
    problem = PROBLEMS[name]()
    labels = []
    for label, solve in entry_points(problem):
        solution = solve(problem)
        report = check_constraints(problem, solution)
        assert report.feasible, (label, report.violations)
        assert set(solution.assignments) == {t.task_id for t in problem.tasks}, label
        labels.append(label)
    assert len(labels) >= 17


def test_exhaustive_enumeration_is_exercised():
    """The cap above does not silently skip ``OptimalSolver`` everywhere."""
    covered = [
        name
        for name, build in PROBLEMS.items()
        if any(label == "optimal" for label, _ in entry_points(build()))
    ]
    assert {"small1", "small2", "small3"} <= set(covered)
    assert any(name.endswith("3tasks") for name in covered)
