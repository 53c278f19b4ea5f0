#!/usr/bin/env python3
"""Quickstart: solve a DOT instance with OffloaDNN.

Builds the paper's small-scale scenario (Table IV), runs the OffloaDNN
heuristic, and prints the decisions: which DNN path serves each task,
the admission ratio, the radio slice size, and the resource totals.

Run:  python examples/quickstart.py
"""

from repro.core import OffloaDNNSolver, check_constraints, objective_value
from repro.core.latency import end_to_end_latency
from repro.workloads import small_scale_problem


def main() -> None:
    problem = small_scale_problem(num_tasks=5)
    solution = OffloaDNNSolver().solve(problem)

    print("OffloaDNN decisions (small-scale scenario, 5 tasks)")
    print("-" * 74)
    for task in problem.tasks:
        assignment = solution.assignment(task)
        if not assignment.admitted:
            print(f"task {task.task_id}: REJECTED")
            continue
        path = assignment.path
        latency = end_to_end_latency(
            path, assignment.radio_blocks, problem.radio.bits_per_rb(task)
        )
        print(
            f"task {task.task_id}: path={path.path_id:28s} "
            f"z={assignment.admission_ratio:4.2f} r={assignment.radio_blocks:2d} RBs "
            f"acc={path.effective_accuracy:.2f}/{task.min_accuracy:.2f} "
            f"lat={latency * 1e3:5.1f}/{task.max_latency_s * 1e3:.0f} ms"
        )
    print("-" * 74)
    print(f"objective (Eq. 1a):      {objective_value(problem, solution):.4f}")
    print(f"memory used:             {solution.total_memory_gb:.2f} / "
          f"{problem.budgets.memory_gb} GB")
    print(f"inference compute used:  {solution.total_inference_compute_s:.3f} / "
          f"{problem.budgets.compute_time_s} s")
    print(f"radio blocks used:       {solution.total_radio_blocks:.1f} / "
          f"{problem.budgets.radio_blocks}")
    print(f"solver runtime:          {solution.solve_time_s * 1e3:.2f} ms")
    report = check_constraints(problem, solution)
    print(f"all DOT constraints ok:  {report.feasible}")


if __name__ == "__main__":
    main()
