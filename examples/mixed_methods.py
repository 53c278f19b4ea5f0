#!/usr/bin/env python3
"""Mixed CV methods: classification and object detection at one edge.

Recreates the Fig. 4 walkthrough's task mix: an object-detection task
("Method: obj. detection, Rate: 4 Hz, Object class: cars, Min accuracy:
0.5 mAP, Max latency: 0.3 s") admitted alongside classification tasks.
Detection paths carry the detection head's extra compute/memory and
their accuracy lives on the mAP scale; the backbone trunk remains
shareable across methods (low-level features transfer).  The detection
costs are the declared constants of ``METHOD_PROFILES["detection"]``.

Run:  python examples/mixed_methods.py
"""

from repro.core import OffloaDNNSolver, check_constraints
from repro.core.problem import Budgets, DOTProblem, RadioModel
from repro.core.task import QualityLevel, Task
from repro.workloads.generator import METHOD_PROFILES, ScenarioCatalogBuilder


def build_problem() -> DOTProblem:
    quality = QualityLevel("full", 350_000.0)
    tasks = (
        Task(task_id=1, name="cars-detection", method="detection", priority=0.9,
             request_rate=4.0, min_accuracy=0.5, max_latency_s=0.3,
             qualities=(quality,)),
        Task(task_id=2, name="animals-classification", method="classification",
             priority=0.8, request_rate=5.0, min_accuracy=0.8, max_latency_s=0.3,
             qualities=(quality,)),
        Task(task_id=3, name="household-classification", method="classification",
             priority=0.7, request_rate=5.0, min_accuracy=0.6, max_latency_s=0.5,
             qualities=(quality,)),
    )
    catalog = ScenarioCatalogBuilder(seed=0).build(tasks, quality)
    return DOTProblem(
        tasks=tasks,
        catalog=catalog,
        budgets=Budgets(compute_time_s=2.5, training_budget_s=1000.0,
                        memory_gb=8.0, radio_blocks=50),
        radio=RadioModel(default_bits_per_rb=350_000.0),
    )


def main() -> None:
    problem = build_problem()
    solution = OffloaDNNSolver().solve(problem)
    print("Admission decisions (mixed classification + detection):")
    for task in problem.tasks:
        a = solution.assignment(task)
        metric = METHOD_PROFILES[task.method].metric
        print(
            f"  {task.name:26s} [{task.method}] z={a.admission_ratio:.2f} "
            f"r={a.radio_blocks} RBs path={a.path.path_id.split(':', 1)[1]} "
            f"acc={a.path.effective_accuracy:.2f} {metric} "
            f"(needs {task.min_accuracy:.2f})"
        )
    print(f"  feasible: {check_constraints(problem, solution).feasible}, "
          f"memory {solution.total_memory_gb:.2f} GB (trunk shared across methods)")


if __name__ == "__main__":
    main()
