"""The DOT objective (Eq. 1a) and constraint checks (Eq. 1b–1i).

The objective weights, by ``α``, the priority-weighted task rejection
term against a resource term composed of (i) the training cost of every
*active* block normalized by ``Ct`` (paid once per block regardless of
how many tasks share it), (ii) the admitted radio load ``z λ r / R``
and (iii) the admitted inference compute ``z λ Σc(s) / C``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.latency import end_to_end_latency
from repro.core.problem import DOTProblem
from repro.core.solution import Assignment, DOTSolution
from repro.core.task import Task

__all__ = [
    "objective_value",
    "objective_breakdown",
    "ObjectiveBreakdown",
    "ConstraintReport",
    "check_constraints",
]


@dataclass(frozen=True)
class ObjectiveBreakdown:
    """The Eq. (1a) value split into its four terms."""

    rejection: float
    training: float
    radio: float
    inference: float
    alpha: float

    @property
    def total(self) -> float:
        return self.alpha * self.rejection + (1.0 - self.alpha) * (
            self.training + self.radio + self.inference
        )

    @property
    def resource(self) -> float:
        return self.training + self.radio + self.inference


def objective_breakdown(problem: DOTProblem, solution: DOTSolution) -> ObjectiveBreakdown:
    """Evaluate Eq. (1a) term by term."""
    budgets = problem.budgets
    rejection = sum(
        (1.0 - solution.assignment(task).admission_ratio) * task.priority
        for task in problem.tasks
    )
    training = solution.total_training_cost_s / budgets.training_budget_s
    # a zero-capacity pool admits nothing, so its normalized load term
    # is zero for any solver-produced solution; the inf fallback keeps
    # hand-built infeasible solutions from dividing by zero
    radio_cap = float(budgets.radio_blocks) or float("inf")
    compute_cap = budgets.compute_time_s or float("inf")
    radio = 0.0
    inference = 0.0
    for task in problem.tasks:
        assignment = solution.assignment(task)
        if not assignment.admitted:
            continue
        assert assignment.path is not None
        rate = assignment.admitted_rate
        radio += rate * assignment.radio_blocks / radio_cap
        inference += rate * assignment.path.compute_time_s / compute_cap
    return ObjectiveBreakdown(
        rejection=rejection,
        training=training,
        radio=radio,
        inference=inference,
        alpha=problem.alpha,
    )


def objective_value(problem: DOTProblem, solution: DOTSolution) -> float:
    """The Eq. (1a) objective value (lower is better)."""
    return objective_breakdown(problem, solution).total


@dataclass
class ConstraintReport:
    """Outcome of checking a solution against Eq. (1b)-(1g)."""

    memory_used_gb: float
    compute_used_s: float
    #: Σ r over admitted tasks (the slice grid)
    radio_used_blocks: int
    violations: list[str] = field(default_factory=list)

    @property
    def feasible(self) -> bool:
        return not self.violations


def _check_task(
    problem: DOTProblem,
    task: Task,
    assignment: Assignment,
    violations: list[str],
) -> None:
    if not assignment.admitted:
        return
    path = assignment.path
    assert path is not None
    bits_per_rb = problem.radio.bits_per_rb(task)
    # (1e) slice bandwidth must sustain the admitted input rate
    required = assignment.admitted_rate * path.bits_per_image
    available = bits_per_rb * assignment.radio_blocks
    if required > available * (1 + 1e-9):
        violations.append(
            f"task {task.task_id}: rate needs {required:.0f} b/s "
            f"but slice carries {available:.0f} b/s (1e)"
        )
    # (1f) accuracy
    if path.effective_accuracy < task.min_accuracy - 1e-9:
        violations.append(
            f"task {task.task_id}: accuracy {path.effective_accuracy:.3f} "
            f"< required {task.min_accuracy:.3f} (1f)"
        )
    # (1g) end-to-end latency
    latency = end_to_end_latency(path, assignment.radio_blocks, bits_per_rb)
    if latency > task.max_latency_s * (1 + 1e-9):
        violations.append(
            f"task {task.task_id}: latency {latency * 1e3:.1f} ms "
            f"> limit {task.max_latency_s * 1e3:.1f} ms (1g)"
        )


def check_constraints(problem: DOTProblem, solution: DOTSolution) -> ConstraintReport:
    """Verify Eq. (1b)-(1g); (1h)/(1i) hold by construction because
    ``m(s)`` is derived from the admitted paths.

    (1d) is checked on the slice grid: every admitted task holds all ``r``
    RBs of its slice, so Σ r ≤ R, which implies the paper's Σ z·r ≤ R.
    """
    violations: list[str] = []
    unassigned = {t.task_id for t in problem.tasks}.difference(solution.assignments)
    if unassigned:
        missing = [t.task_id for t in problem.tasks if t.task_id in unassigned]
        violations.append(f"tasks without an assignment: {missing}")

    memory = solution.total_memory_gb
    compute = solution.total_inference_compute_s
    radio = solution.total_radio_blocks

    if memory > problem.budgets.memory_gb * (1 + 1e-9):
        violations.append(
            f"memory {memory:.3f} GB exceeds budget {problem.budgets.memory_gb} GB (1b)"
        )
    if compute > problem.budgets.compute_time_s * (1 + 1e-9):
        violations.append(
            f"compute {compute:.3f} s exceeds budget {problem.budgets.compute_time_s} s (1c)"
        )
    if radio > problem.budgets.radio_blocks:
        violations.append(
            f"slice grid: slices hold {radio} RBs of a "
            f"{problem.budgets.radio_blocks}-RB pool (1d)"
        )
    for assignment, member_ids in solution.runs():
        probe: list[str] = []
        _check_task(problem, assignment.task, assignment, probe)
        # the members of a run break (1e)-(1g) together: name each one
        for task_id in member_ids if probe else ():
            member = solution.assignment(task_id)
            _check_task(problem, member.task, member, violations)

    return ConstraintReport(
        memory_used_gb=memory,
        compute_used_s=compute,
        radio_used_blocks=radio,
        violations=violations,
    )
