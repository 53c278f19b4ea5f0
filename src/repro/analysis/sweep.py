"""Sensitivity sweeps — extensions beyond the paper's evaluation.

The paper evaluates fixed budgets (Table IV).  These sweeps vary one
resource or objective knob at a time on the large-scale scenario and
record how admission and consumption respond, quantifying *where* each
resource starts to bind:

* :func:`sweep_radio_budget` — the RB pool is the binding resource at
  medium/high load; admission should fall once R drops below the
  saturation point;
* :func:`sweep_memory_budget` — with block sharing, memory binds only
  at a small fraction of the Table IV budget;
* :func:`sweep_request_rate` — a finer-grained version of the
  low/medium/high axis of Fig. 10.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.heuristic import OffloaDNNSolver
from repro.core.objective import objective_value
from repro.core.problem import Budgets, DOTProblem
from repro.workloads.largescale import RequestRate, large_scale_problem

__all__ = [
    "SweepPoint",
    "sweep_radio_budget",
    "sweep_memory_budget",
    "sweep_request_rate",
]


from dataclasses import dataclass


@dataclass(frozen=True)
class SweepPoint:
    """One sweep sample: the knob value and the response metrics."""

    value: float
    weighted_admission: float
    admitted_tasks: int
    memory_gb: float
    radio_blocks: float
    inference_s: float
    objective: float


def _solve_point(problem: DOTProblem, value: float, solver=None) -> SweepPoint:
    solver = solver or OffloaDNNSolver()
    solution = solver.solve(problem)
    return SweepPoint(
        value=value,
        weighted_admission=solution.weighted_admission_ratio,
        admitted_tasks=solution.admitted_task_count,
        memory_gb=solution.total_memory_gb,
        radio_blocks=solution.total_radio_blocks,
        inference_s=solution.total_inference_compute_s,
        objective=objective_value(problem, solution),
    )


def _with_budgets(problem: DOTProblem, budgets: Budgets) -> DOTProblem:
    return DOTProblem(
        tasks=problem.tasks,
        catalog=problem.catalog,
        budgets=budgets,
        radio=problem.radio,
        alpha=problem.alpha,
    )


def sweep_radio_budget(
    radio_blocks: list[int],
    rate: RequestRate = RequestRate.MEDIUM,
    seed: int = 0,
) -> list[SweepPoint]:
    """Admission response to the RB pool size."""
    base = large_scale_problem(rate, seed=seed)
    points = []
    for blocks in radio_blocks:
        problem = _with_budgets(base, replace(base.budgets, radio_blocks=blocks))
        points.append(_solve_point(problem, float(blocks)))
    return points


def sweep_memory_budget(
    memory_gb: list[float],
    rate: RequestRate = RequestRate.MEDIUM,
    seed: int = 0,
) -> list[SweepPoint]:
    """Admission response to the edge memory budget."""
    base = large_scale_problem(rate, seed=seed)
    points = []
    for memory in memory_gb:
        problem = _with_budgets(base, replace(base.budgets, memory_gb=memory))
        points.append(_solve_point(problem, memory))
    return points


def sweep_request_rate(
    rates: list[float],
    seed: int = 0,
) -> list[SweepPoint]:
    """Fine-grained load axis: admission vs per-task request rate."""
    from repro.workloads.largescale import LARGE_SCALE, large_scale_tasks
    from repro.workloads.generator import ScenarioCatalogBuilder

    points = []
    for rate_value in rates:
        # build tasks at an arbitrary (non-enum) rate
        reference = large_scale_tasks(RequestRate.LOW)
        tasks = tuple(replace(t, request_rate=rate_value) for t in reference)
        builder = ScenarioCatalogBuilder(seed=seed)
        catalog = builder.build(tasks, tasks[0].qualities[0])
        problem = DOTProblem(
            tasks=tasks,
            catalog=catalog,
            budgets=Budgets(
                compute_time_s=LARGE_SCALE.compute_budget_s,
                training_budget_s=LARGE_SCALE.training_budget_s,
                memory_gb=LARGE_SCALE.memory_gb,
                radio_blocks=LARGE_SCALE.radio_blocks,
            ),
            radio=problem_radio(),
            alpha=LARGE_SCALE.alpha,
        )
        points.append(_solve_point(problem, rate_value))
    return points


def problem_radio():
    from repro.core.problem import RadioModel
    from repro.workloads.largescale import LARGE_SCALE

    return RadioModel(default_bits_per_rb=LARGE_SCALE.bits_per_rb)
