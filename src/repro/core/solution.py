"""Solutions of the DOT problem.

A solution assigns each task a path (``x``/``y`` in the formulation), an
admission ratio ``z ∈ [0, 1]`` and a radio allocation ``r`` (RBs).  A
rejected task has ``z = 0``; its path, if any, deploys no blocks
(``m(s)`` auxiliary variables are derived from the admitted set only).
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Mapping, Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property, reduce
from itertools import chain, repeat
from operator import add

from repro.core.catalog import Block, Path
from repro.core.task import Task

__all__ = ["Assignment", "AssignmentRuns", "DOTSolution"]


@dataclass(frozen=True)
class Assignment:
    """Decision for one task."""

    task: Task
    #: selected DNN path, or None when the task was never placed
    path: Path | None
    #: admission ratio ``z_τ``
    admission_ratio: float
    #: number of radio resource blocks ``r_τ``
    radio_blocks: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.admission_ratio <= 1.0:
            raise ValueError("admission ratio must be in [0, 1]")
        if self.radio_blocks < 0:
            raise ValueError("radio_blocks must be >= 0")
        if self.admitted and self.path is None:
            raise ValueError("an admitted task needs a path")

    @property
    def admitted(self) -> bool:
        return self.admission_ratio > 0.0

    @property
    def admitted_rate(self) -> float:
        """``z_τ * λ_τ`` requests per second actually served."""
        return self.admission_ratio * self.task.request_rate


#: ``(assignment, member ids)``: every member gets its path, ``z`` and ``r``,
#: and has its task's priority, rate, bounds and bits per RB
Run = tuple[Assignment, Sequence[int]]


class AssignmentRuns(Mapping[int, Assignment]):
    """Task id -> assignment kept as runs, in run order (the population solve).

    A member's own :class:`Assignment` is built when it is looked up.
    """

    def __init__(self, runs: Sequence[Run], task_of: Callable[[int], Task]) -> None:
        self.runs, self._task_of = runs, task_of

    @cached_property
    def _run_of(self) -> dict[int, int]:
        return {tid: i for i, (_, ids) in enumerate(self.runs) for tid in ids}

    def __getitem__(self, task_id: int) -> Assignment:
        return replace(self.runs[self._run_of[task_id]][0], task=self._task_of(task_id))

    def __iter__(self):
        return chain.from_iterable(ids for _, ids in self.runs)

    def __len__(self) -> int:
        return sum(len(ids) for _, ids in self.runs)


@dataclass
class DOTSolution:
    """A complete solution: one assignment per task."""

    assignments: dict[int, Assignment] | AssignmentRuns = field(default_factory=dict)
    #: wall-clock seconds of selection + allocation, excluding tree
    #: construction
    solve_time_s: float = 0.0
    #: wall-clock seconds spent building the solution tree (0 for
    #: solvers that use none, e.g. SEM-O-RAN)
    tree_build_time_s: float = 0.0
    solver_name: str = ""
    #: tree leaves allocated and compared by an enumerating solve
    #: (``OptimalSolver``); 0 when the solver
    #: walked a single branch and compared nothing
    branches_explored: int = 0

    @property
    def total_time_s(self) -> float:
        """End-to-end solver time (tree build + solve) — Fig. 6 input."""
        return self.tree_build_time_s + self.solve_time_s

    def assignment(self, task: Task | int) -> Assignment:
        task_id = task.task_id if isinstance(task, Task) else task
        return self.assignments[task_id]

    def admitted_assignments(self) -> list[Assignment]:
        return [a for a in self.assignments.values() if a.admitted]

    def runs(self) -> Iterable[Run]:
        """The assignments as runs, in order; a plain dict is runs of one."""
        if isinstance(self.assignments, AssignmentRuns):
            return self.assignments.runs
        return ((a, (task_id,)) for task_id, a in self.assignments.items())

    def _sum(self, term: Callable[[Assignment], float], total: float = 0) -> float:
        """``Σ term`` over members, added one by one in assignment order."""
        # not ``sum``, which compensates float additions from Python 3.12
        # on: a run must add up to exactly what its members would
        for assignment, member_ids in self.runs():
            total = reduce(add, repeat(term(assignment), len(member_ids)), total)
        return total

    def active_blocks(self) -> dict[str, Block]:
        """Blocks used by at least one admitted task (``m(s) = 1``)."""
        blocks: dict[str, Block] = {}
        for assignment, _ in self.runs():
            if assignment.admitted:
                assert assignment.path is not None
                for block in assignment.path.blocks:
                    blocks.setdefault(block.block_id, block)
        return blocks

    # ------------------------------------------------------------------
    # Aggregate metrics (consumed by the evaluation figures)
    # ------------------------------------------------------------------

    @property
    def total_memory_gb(self) -> float:
        """Memory of active blocks, shared blocks counted once (1b LHS)."""
        return sum(b.memory_gb for b in self.active_blocks().values())

    @property
    def total_training_cost_s(self) -> float:
        """Training cost of active blocks, paid once per block."""
        return sum(b.training_cost_s for b in self.active_blocks().values())

    @property
    def total_inference_compute_s(self) -> float:
        """``Σ_τ z_τ λ_τ Σ_{s∈π_τ} c(s)`` (1c LHS)."""
        return self._sum(
            lambda a: a.admitted_rate * a.path.compute_time_s if a.admitted else 0.0,
            0.0,
        )

    @property
    def total_radio_blocks(self) -> int:
        """``Σ_τ r_τ`` over admitted tasks: the slice grid every slice holds
        in full, which bounds the paper's (1d) ``Σ_τ z_τ r_τ`` from above."""
        return self._sum(lambda a: a.radio_blocks if a.admitted else 0)

    @property
    def weighted_admission_ratio(self) -> float:
        """``Σ_τ z_τ p_τ`` — the Fig. 8/10 left-panel metric."""
        return self._sum(lambda a: a.admission_ratio * a.task.priority)

    @property
    def admitted_task_count(self) -> int:
        return sum(len(ids) for a, ids in self.runs() if a.admitted)

    def admission_vector(self) -> dict[int, float]:
        """Task id -> admission ratio (the Fig. 9 series)."""
        return {tid: a.admission_ratio for a, ids in self.runs() for tid in ids}
