"""Control-plane scaling — solver runtime from 20 to 10⁶ tasks.

Three measurements back the DOT control plane (all solver wall time,
``time.perf_counter``):

1. **Paper scale.**  The Table IV large-scale scenario at all three
   request loads, timed as the online controller runs it: re-solves of
   a live catalog, median of ``PAPER_REPEATS`` solves after one untimed
   solve, with the build / select / allocate split.  (Parity with the
   scalar reference is a tier-1 test against ``tests/oracles.py``, not a
   bench row: there is one tree in ``src/``.)
2. **Solve time vs population.**  Replicated large-scale instances
   (20 service classes × N replicas) are solved with the aggregation
   layer up to 10⁶ modeled users, with the direct per-task solve as
   reference where tractable.  Aggregated and direct solves are checked
   for admission equivalence; a miss fails the bench.
3. **Memo-warm churn.**  At 10⁴ tasks, a 1% arrival/departure churn is
   re-solved with the caller's clique memo (``solve(problem, memo=)``)
   versus from scratch; the speedup is recorded and the two solutions
   must be bit-identical, or the bench fails.

The whole bench runs under one :class:`repro.obs.ObsSession`: the solver
spans (O(1) per solve) give every row its tree build / select / allocate
split and the report its ``phases`` block.

Full mode writes ``BENCH_solver.json`` at the repo root (committed);
``--quick`` runs a reduced grid for CI smoke, writes
``benchmarks/results/BENCH_solver_quick.json`` and exits nonzero on an
equivalence or memo-vs-cold failure.
"""

from __future__ import annotations

import argparse
import pathlib
import statistics
import time
from dataclasses import replace

from benchmarks._report import attach_obs, write_json
from repro.analysis.report import format_table
from repro.core.aggregate import AggregateSolver
from repro.core.catalog import Catalog
from repro.core.heuristic import OffloaDNNSolver
from repro.core.problem import DOTProblem
from repro.core.tree import build_vector_tree
from repro.obs import ObsSession, current_tracer, use_tracer
from repro.workloads.largescale import (
    RequestRate,
    replicated_large_scale_problem,
)

REPO_ROOT = pathlib.Path(__file__).parent.parent
SEED = 0

#: population sizes (modeled users = tasks) of the scaling curve
FULL_USERS = [100, 1_000, 10_000, 100_000, 1_000_000]
QUICK_USERS = [100, 1_000]
#: largest population solved per task (without aggregation)
DIRECT_CAP = 100_000
#: admission-equivalence tolerance between aggregated and direct solves
EQUIV_RTOL = 0.02
#: timed solves per rate in the paper-scale rows
PAPER_REPEATS = 25


def _solution_key(solution):
    return [
        (
            tid,
            a.path.path_id if a.path else None,
            a.admission_ratio,
            a.radio_blocks,
        )
        for tid, a in sorted(solution.assignments.items())
    ]


def _traced(solve, problem):
    """``(solution, seconds per solver span)`` of one ``solve(problem)``."""
    records = current_tracer().records
    mark = len(records)
    solution = solve(problem)
    phases: dict[str, float] = {}
    for record in records[mark:]:
        if record.name.startswith("solver."):
            key = record.name.removeprefix("solver.") + "_s"
            phases[key] = phases.get(key, 0.0) + record.dur
    return solution, phases


def paper_scale() -> list[dict]:
    """Re-solve time and phase split on the Table IV scenario."""
    from repro.workloads.largescale import large_scale_problem

    rows = []
    solve = OffloaDNNSolver().solve
    for rate in RequestRate:
        problem = large_scale_problem(rate, seed=SEED)
        first = solve(problem)
        totals: list[float] = []
        phases: dict[str, list[float]] = {}
        for _ in range(PAPER_REPEATS):
            solution, spans = _traced(solve, problem)
            totals.append(solution.total_time_s)
            for key, seconds in spans.items():
                phases.setdefault(key, []).append(seconds)
        rows.append(
            {
                "rate": rate.label,
                "tasks": len(problem.tasks),
                "total_s": statistics.median(totals),
                "phases": {
                    key: statistics.median(values) for key, values in phases.items()
                },
                "weighted_admission": first.weighted_admission_ratio,
            }
        )
    return rows


def scaling_curve(users_grid: list[int]) -> list[dict]:
    rows = []
    for users in users_grid:
        replicas = max(1, users // 20)
        problem = replicated_large_scale_problem(
            RequestRate.MEDIUM, replicas, seed=SEED
        )
        solver = AggregateSolver()
        start = time.perf_counter()
        aggregated, aggregate_phases = _traced(solver.solve, problem)
        agg_wall_s = time.perf_counter() - start
        assert solver.last_plan is not None
        row = {
            "users": len(problem.tasks),
            "groups": solver.last_plan.num_groups,
            "aggregate_total_s": aggregated.total_time_s,
            "aggregate_wall_s": agg_wall_s,
            "weighted_admission": aggregated.weighted_admission_ratio,
            "admitted_tasks": aggregated.admitted_task_count,
            "aggregate_phases": aggregate_phases,
            "direct_s": None,
            "direct_phases": None,
            "admission_equivalent": None,
        }
        if len(problem.tasks) <= DIRECT_CAP:
            direct, row["direct_phases"] = _traced(OffloaDNNSolver().solve, problem)
            row["direct_s"] = direct.total_time_s
            ref = direct.weighted_admission_ratio
            delta = abs(aggregated.weighted_admission_ratio - ref)
            row["admission_equivalent"] = bool(
                delta <= EQUIV_RTOL * max(1.0, abs(ref))
            )
        rows.append(row)
    return rows


def _churned(problem: DOTProblem, fraction: float):
    """Replace the last ``fraction`` of tasks with fresh arrivals."""
    tasks = list(problem.tasks)
    count = max(1, int(len(tasks) * fraction))
    survivors, victims = tasks[:-count], tasks[-count:]
    next_id = max(t.task_id for t in tasks) + 1
    catalog = Catalog()
    catalog.paths_by_task = dict(problem.catalog.paths_by_task)
    arrivals = []
    for offset, victim in enumerate(victims):
        arrival = replace(
            victim, task_id=next_id + offset, name=f"arrival-{next_id + offset}"
        )
        catalog.paths_by_task[arrival.task_id] = problem.catalog.paths_by_task[
            victim.task_id
        ]
        arrivals.append(arrival)
    churned = DOTProblem(
        tasks=tuple(survivors + arrivals),
        catalog=catalog,
        budgets=problem.budgets,
        radio=problem.radio,
        alpha=problem.alpha,
    )
    return churned, [v.task_id for v in victims]


def _deshared(problem: DOTProblem) -> DOTProblem:
    """Give every task its own path-tuple object.

    Replicated instances share candidate-path tuples by identity, which
    lets ``build_vector_tree``'s per-call replica memo collapse the cold
    build to O(distinct classes).  De-sharing models a heterogeneous
    population where it cannot hit, isolating the caller memo's value.
    """
    catalog = Catalog()
    catalog.paths_by_task = {
        tid: tuple(list(paths))
        for tid, paths in problem.catalog.paths_by_task.items()
    }
    return DOTProblem(
        tasks=problem.tasks,
        catalog=catalog,
        budgets=problem.budgets,
        radio=problem.radio,
        alpha=problem.alpha,
    )


def memo_warm_churn(
    users: int, churn_fraction: float = 0.01, heterogeneous: bool = False
) -> dict:
    problem = replicated_large_scale_problem(
        RequestRate.MEDIUM, max(1, users // 20), seed=SEED
    )
    if heterogeneous:
        problem = _deshared(problem)
    solver = OffloaDNNSolver()
    memo: dict = {}
    solver.solve(problem, memo=memo)  # populate the clique memo
    churned, departed = _churned(problem, churn_fraction)
    for task_id in departed:
        memo.pop(task_id)
    reused = build_vector_tree(churned, dict(memo)).cached_cliques

    start = time.perf_counter()
    warm_solution = solver.solve(churned, memo=memo)
    warm_wall_s = time.perf_counter() - start
    start = time.perf_counter()
    cold_solution = solver.solve(churned)
    cold_wall_s = time.perf_counter() - start
    return {
        "users": len(problem.tasks),
        "population": "heterogeneous" if heterogeneous else "replicated",
        "churned_tasks": len(departed),
        "cliques_reused": reused,
        "cliques_rebuilt": len(churned.tasks) - reused,
        "warm_resolve_s": warm_wall_s,
        "cold_resolve_s": cold_wall_s,
        "speedup": cold_wall_s / warm_wall_s if warm_wall_s > 0 else None,
        "bit_exact": _solution_key(warm_solution) == _solution_key(cold_solution),
    }


def run(quick: bool) -> dict:
    obs = ObsSession()
    with use_tracer(obs.wall):
        paper = paper_scale()
        scaling = scaling_curve(QUICK_USERS if quick else FULL_USERS)
        churn_users = 1_000 if quick else 10_000
        warm = [
            memo_warm_churn(churn_users, heterogeneous=False),
            memo_warm_churn(churn_users, heterogeneous=True),
        ]
    parity_ok = all(r["admission_equivalent"] is not False for r in scaling) and all(
        w["bit_exact"] for w in warm
    )
    report = {
        "bench": "bench_solver",
        "mode": "quick" if quick else "full",
        "settings": {
            "seed": SEED,
            "users_grid": QUICK_USERS if quick else FULL_USERS,
            "direct_cap": DIRECT_CAP,
            "equivalence_rtol": EQUIV_RTOL,
            "churn_fraction": 0.01,
            "paper_repeats": PAPER_REPEATS,
        },
        "paper_scale": paper,
        "scaling": scaling,
        "memo_warm": warm,
        "parity_ok": parity_ok,
    }
    return attach_obs(report, obs)


def _fmt_s(value) -> str:
    return "-" if value is None else f"{value:.4f}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: populations 100/1000, 1000-task churn",
    )
    args = parser.parse_args()

    report = run(quick=args.quick)

    paper_table = format_table(
        ["rate", "tasks", "solve ms", "build", "select", "allocate"],
        [
            [r["rate"], r["tasks"], f"{r['total_s'] * 1e3:.3f}"]
            + [
                f"{r['phases'][key] * 1e3:.3f}"
                for key in ("tree_build_s", "select_branch_s", "allocate_s")
            ]
            for r in report["paper_scale"]
        ],
    )
    scale_table = format_table(
        ["users", "groups", "aggregate s", "direct s", "w.adm"],
        [
            [
                r["users"],
                r["groups"],
                _fmt_s(r["aggregate_total_s"]),
                _fmt_s(r["direct_s"]),
                f"{r['weighted_admission']:.2f}",
            ]
            for r in report["scaling"]
        ],
    )
    warm_lines = []
    for warm in report["memo_warm"]:
        warm_lines.append(
            f"memo-warm churn @ {warm['users']} {warm['population']} tasks: "
            f"{warm['warm_resolve_s']:.4f} s vs cold "
            f"{warm['cold_resolve_s']:.4f} s "
            f"({warm['speedup']:.1f}x, reused {warm['cliques_reused']} "
            f"cliques, bit exact {warm['bit_exact']})"
        )
    warm_line = "\n".join(warm_lines)
    print("\n" + paper_table + "\n\n" + scale_table + "\n\n" + warm_line)

    if args.quick:
        json_path = REPO_ROOT / "benchmarks" / "results" / "BENCH_solver_quick.json"
    else:
        json_path = REPO_ROOT / "BENCH_solver.json"
    write_json(report, json_path)

    if not report["parity_ok"]:
        print("PARITY FAILURE: see the report above")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
