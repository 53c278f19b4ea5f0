"""DOT problem instances (Sec. III-B).

Bundles the tasks, the DNN catalog, the edge resource budgets, the radio
model and the objective weight ``α`` into one immutable description that
solvers consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from operator import attrgetter

from repro.core.catalog import Catalog
from repro.core.task import Task

__all__ = ["Budgets", "RadioModel", "DOTProblem"]


@dataclass(frozen=True)
class Budgets:
    """Edge and radio capacity limits.

    Compute, memory and radio capacities may be zero: a zero-headroom
    instance describes a momentarily exhausted platform (the online
    churn case), and every solver then rejects all tasks rather than
    the caller having to special-case it.  The training normalizer
    ``Ct`` stays strictly positive because it divides the objective.
    """

    #: available inference compute time ``C`` (device-seconds per second)
    compute_time_s: float
    #: full-DNN training cost normalizer ``Ct`` (device-seconds)
    training_budget_s: float
    #: available memory ``M`` in GB (RAM/VRAM)
    memory_gb: float
    #: available radio resource blocks ``R``
    radio_blocks: int

    def __post_init__(self) -> None:
        inf = float("inf")  # chained comparisons also reject NaN
        if not 0 <= self.compute_time_s < inf:
            raise ValueError("compute budget must be finite and >= 0")
        if not 0 < self.training_budget_s < inf:
            raise ValueError("training budget must be finite and positive")
        if not 0 <= self.memory_gb < inf:
            raise ValueError("memory budget must be finite and >= 0")
        # whole: the solver admits on the slice grid (Σ r ≤ R)
        if not (0 <= self.radio_blocks < inf and float(self.radio_blocks).is_integer()):
            raise ValueError(
                f"radio_blocks must be a whole number >= 0, got {self.radio_blocks!r}"
            )


@dataclass(frozen=True)
class RadioModel:
    """Maps a task's channel state to the RB capacity ``B(σ_τ)``.

    The default reproduces Table IV: every RB carries 0.35 Mbps
    regardless of SINR.  ``per_task_bits_per_rb`` overrides it per task
    (a field of the problem JSON format, :mod:`repro.core.serialize`).
    """

    default_bits_per_rb: float = 350_000.0
    per_task_bits_per_rb: dict[int, float] = field(default_factory=dict)

    def bits_per_rb(self, task: Task) -> float:
        """``B(σ_τ)`` in bits/s carried by one RB for this task."""
        return self.per_task_bits_per_rb.get(task.task_id, self.default_bits_per_rb)

    def __post_init__(self) -> None:
        inf = float("inf")  # chained comparisons also reject NaN
        if not 0 < self.default_bits_per_rb < inf:
            raise ValueError("default_bits_per_rb must be finite and positive")
        for task_id, bits in self.per_task_bits_per_rb.items():
            if not 0 < bits < inf:
                raise ValueError(
                    f"per_task_bits_per_rb[{task_id}] must be finite and positive"
                )


@dataclass(frozen=True)
class DOTProblem:
    """One instance of the DNNs-for-scalable-Offloading-of-Tasks problem."""

    tasks: tuple[Task, ...]
    catalog: Catalog
    budgets: Budgets
    radio: RadioModel = field(default_factory=RadioModel)
    #: objective weight between task rejection and resource consumption
    alpha: float = 0.5

    def __post_init__(self) -> None:
        if not self.tasks:
            raise ValueError("a problem needs at least one task")
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        ids = [t.task_id for t in self.tasks]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate task ids")
        self.catalog.validate(self.tasks)

    def tasks_by_priority(self) -> tuple[Task, ...]:
        """Tasks in descending priority order (ties by id for determinism).

        Two stable sorts, by id and then by priority, give the order of the
        ``(-priority, id)`` key without building a key tuple per task.
        """
        by_id = sorted(self.tasks, key=attrgetter("task_id"))
        return tuple(sorted(by_id, key=attrgetter("priority"), reverse=True))

    @cached_property
    def _tasks_by_id(self) -> dict[int, Task]:
        return {task.task_id: task for task in self.tasks}

    def task(self, task_id: int) -> Task:
        return self._tasks_by_id[task_id]
