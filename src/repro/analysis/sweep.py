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

from dataclasses import dataclass, replace

from repro.core.heuristic import OffloaDNNSolver
from repro.core.objective import objective_value
from repro.core.problem import DOTProblem
from repro.workloads.generator import ScenarioCatalogBuilder
from repro.workloads.largescale import RequestRate, large_scale_problem

__all__ = [
    "SweepPoint",
    "sweep",
    "sweep_radio_budget",
    "sweep_memory_budget",
    "sweep_request_rate",
]


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


def _solve_point(problem: DOTProblem, value: float) -> SweepPoint:
    solution = OffloaDNNSolver().solve(problem)
    return SweepPoint(
        value=value,
        weighted_admission=solution.weighted_admission_ratio,
        admitted_tasks=solution.admitted_task_count,
        memory_gb=solution.total_memory_gb,
        radio_blocks=solution.total_radio_blocks,
        inference_s=solution.total_inference_compute_s,
        objective=objective_value(problem, solution),
    )


def sweep_radio_budget(
    radio_blocks: list[int],
    rate: RequestRate = RequestRate.MEDIUM,
    seed: int = 0,
) -> list[SweepPoint]:
    """Admission response to the RB pool size."""
    base = large_scale_problem(rate, seed=seed)
    return [
        _solve_point(
            replace(base, budgets=replace(base.budgets, radio_blocks=blocks)), float(blocks)
        )
        for blocks in radio_blocks
    ]


def sweep_memory_budget(
    memory_gb: list[float],
    rate: RequestRate = RequestRate.MEDIUM,
    seed: int = 0,
) -> list[SweepPoint]:
    """Admission response to the edge memory budget."""
    base = large_scale_problem(rate, seed=seed)
    return [
        _solve_point(replace(base, budgets=replace(base.budgets, memory_gb=memory)), memory)
        for memory in memory_gb
    ]


def sweep_request_rate(rates: list[float], seed: int = 0) -> list[SweepPoint]:
    """Fine-grained load axis: admission vs per-task request rate."""
    base = large_scale_problem(RequestRate.LOW, seed=seed)
    points = []
    for rate_value in rates:
        # the Table IV tasks and budgets at an arbitrary (non-enum) rate
        tasks = tuple(replace(t, request_rate=rate_value) for t in base.tasks)
        catalog = ScenarioCatalogBuilder(seed=seed).build(tasks, tasks[0].qualities[0])
        points.append(_solve_point(replace(base, tasks=tasks, catalog=catalog), rate_value))
    return points


def sweep(knob: str, values: list) -> list[SweepPoint]:
    """The sweep over ``knob`` (``"radio"``, ``"memory"`` or ``"rate"``)."""
    return {
        "radio": sweep_radio_budget,
        "memory": sweep_memory_budget,
        "rate": sweep_request_rate,
    }[knob](values)
