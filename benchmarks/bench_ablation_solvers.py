"""Ablation — subproblem solver: structured exact vs SLSQP.

The per-branch (z, r) program is convex; the paper notes any convex
optimizer works.  This bench compares the structured solver (used by
both OffloaDNN and the optimum here) against scipy SLSQP on the same
branch, in solution quality and speed.
"""

from __future__ import annotations

import time

from benchmarks._report import emit
from repro.analysis.report import format_table
from repro.core.subproblem import BranchItem, solve_branch, solve_branch_convex
from repro.core.tree import build_vector_tree
from repro.workloads.largescale import RequestRate, large_scale_problem


def _branch_items(problem):
    """The first (least compute time) variant of every non-empty clique."""
    radio_blocks = problem.budgets.radio_blocks
    return [
        BranchItem(
            clique.task,
            clique.variant_path(feasible[0]),
            clique.bits_per_rb,
            clique.min_latency_rbs(feasible[0]),
        )
        for clique in build_vector_tree(problem).cliques
        if (feasible := clique.feasible(radio_blocks))
    ]


def bench_ablation_subproblem_solvers(benchmark):
    problem = large_scale_problem(RequestRate.HIGH)
    items = _branch_items(problem)

    def run():
        t0 = time.perf_counter()
        structured = solve_branch(items, problem.budgets)
        t_structured = time.perf_counter() - t0
        t0 = time.perf_counter()
        convex = solve_branch_convex(items, problem.budgets, alpha=problem.alpha)
        t_convex = time.perf_counter() - t0
        return structured, convex, t_structured, t_convex

    structured, convex, t_structured, t_convex = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    w_structured = sum(
        z * it.task.priority for z, it in zip(structured.admission, items)
    )
    w_convex = sum(z * it.task.priority for z, it in zip(convex.admission, items))
    rows = [
        ["structured (exact)", w_structured, t_structured * 1e3],
        ["scipy SLSQP", w_convex, t_convex * 1e3],
    ]
    emit(
        "ablation_solvers",
        "Ablation: per-branch (z, r) solver (large scale, high rate)\n"
        + format_table(["solver", "weighted admission", "time [ms]"], rows),
    )
    # the structured solver admits at least as much, at lower runtime
    assert w_structured >= w_convex - 1e-6
