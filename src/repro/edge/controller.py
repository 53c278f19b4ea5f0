"""The OffloaDNN controller — the Fig. 4 workflow, end to end.

Steps:

1. mobile devices submit task admission requests;
2. the controller reads the remaining computing and radio capacities;
3. it runs the DOT solver (OffloaDNN by default);
4. it holds each admitted task's radio slice and inference compute;
5. it deploys the selected DNN blocks;
6. it notifies the devices of the admitted task rates;
7. devices transmit task inputs and receive results (the serving
   runtime's role; see :mod:`repro.serving`).

The solver counts every pool the way the edge holds it — block memory
once per block (1b), compute (1c) and the slice grid Σ r ≤ R, each
admitted task holding all ``r`` RBs of its slice — so steps 4–6 are a
function of the solution, :func:`admission_tickets`.  A solution the
edge cannot hold is an :class:`AdmissionError` naming every violated
constraint; no admitted task is turned away on the side.  Admission
rounds over time (the paper's dynamic scenario) keep one
:class:`ResourceLedger`, whose remaining capacities are the next
round's budgets.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.core.catalog import Block, Catalog, Path
from repro.core.heuristic import OffloaDNNSolver
from repro.core.objective import check_constraints
from repro.core.problem import Budgets, DOTProblem, RadioModel
from repro.core.solution import DOTSolution
from repro.core.task import Task

__all__ = [
    "AdmissionError",
    "AdmissionTicket",
    "OffloaDNNController",
    "ResourceLedger",
    "admission_tickets",
]


class AdmissionError(ValueError):
    """A solution that does not fit the edge's capacities."""

    def __init__(self, violations: list[str]) -> None:
        self.violations = list(violations)
        super().__init__("solution does not fit the edge: " + "; ".join(violations))


@dataclass(frozen=True)
class AdmissionTicket:
    """Step-6 notification returned to a mobile device."""

    task_id: int
    admitted: bool
    #: admitted fraction of the requested rate (z_τ)
    admission_ratio: float
    #: inference requests per second the device may transmit
    granted_rate: float
    #: RBs of the slice serving the task
    radio_blocks: int
    #: identifier of the DNN path serving the task (None if rejected)
    path_id: str | None


def admission_tickets(
    problem: DOTProblem, solution: DOTSolution
) -> dict[int, AdmissionTicket]:
    """Every task's ticket, read off ``solution`` (workflow steps 4–6).

    Raises :class:`AdmissionError` listing what
    :func:`~repro.core.objective.check_constraints` reports, if anything.
    """
    violations = check_constraints(problem, solution).violations
    if violations:
        raise AdmissionError(violations)
    tickets: dict[int, AdmissionTicket] = {}
    for task in problem.tasks:
        a = solution.assignment(task)
        tickets[task.task_id] = (
            AdmissionTicket(
                task.task_id, True, a.admission_ratio, a.admitted_rate,
                a.radio_blocks, a.path.path_id,
            )
            if a.admitted
            else AdmissionTicket(task.task_id, False, 0.0, 0.0, 0, None)
        )
    return tickets


@dataclass
class ResourceLedger:
    """What the admitted tasks hold of the edge's capacities.

    Deployed blocks are reference counted: a block shared by several
    tasks is held once and unloaded with its last user, the ``m(s^d)``
    semantics of (1b).
    """

    capacity: Budgets
    #: deployed block id -> the block and the ids of the tasks using it
    blocks: dict[str, tuple[Block, set[int]]] = field(default_factory=dict)
    #: committed inference compute ``z·λ·Σc`` per admitted task
    compute_s: dict[int, float] = field(default_factory=dict)
    #: slice RBs per admitted task
    radio_blocks: dict[int, int] = field(default_factory=dict)

    def remaining(self) -> Budgets:
        """The capacities left: the next admission round's budgets."""
        capacity = self.capacity
        compute = capacity.compute_time_s - sum(self.compute_s.values())
        memory = capacity.memory_gb - sum(b.memory_gb for b, _ in self.blocks.values())
        return replace(
            capacity,
            compute_time_s=max(0.0, compute),
            memory_gb=max(0.0, memory),
            radio_blocks=capacity.radio_blocks - sum(self.radio_blocks.values()),
        )

    def hold(self, problem: DOTProblem, solution: DOTSolution) -> None:
        """Hold the slice, compute and blocks of every admitted task."""
        for task in problem.tasks:
            a = solution.assignment(task)
            if not a.admitted:
                continue
            self.compute_s[task.task_id] = a.admitted_rate * a.path.compute_time_s
            self.radio_blocks[task.task_id] = a.radio_blocks
            for block in a.path.blocks:
                self.blocks.setdefault(block.block_id, (block, set()))[1].add(task.task_id)

    def release(self, task_id: int) -> list[str]:
        """Release ``task_id``'s slice and compute; unload its orphaned blocks."""
        self.compute_s.pop(task_id, None)
        self.radio_blocks.pop(task_id, None)
        unloaded = []
        for block_id, (_, users) in list(self.blocks.items()):
            users.discard(task_id)
            if not users:
                del self.blocks[block_id]
                unloaded.append(block_id)
        return unloaded


@dataclass
class OffloaDNNController:
    """Edge-side controller: admission rounds against one ledger."""

    ledger: ResourceLedger
    radio: RadioModel = field(default_factory=RadioModel)
    solver: object = field(default_factory=OffloaDNNSolver)
    alpha: float = 0.5
    #: last DOT solution, for inspection
    last_solution: DOTSolution | None = None

    def handle_admission_requests(
        self, tasks: tuple[Task, ...], catalog: Catalog
    ) -> dict[int, AdmissionTicket]:
        """Run the full workflow for a batch of admission requests."""
        problem = DOTProblem(
            tasks=tasks,
            catalog=self._free_deployed(tasks, catalog),
            budgets=self.ledger.remaining(),
            radio=self.radio,
            alpha=self.alpha,
        )
        solution = self.solver.solve(problem)
        self.last_solution = solution
        tickets = admission_tickets(problem, solution)
        self.ledger.hold(problem, solution)
        return tickets

    def _free_deployed(self, tasks: tuple[Task, ...], catalog: Catalog) -> Catalog:
        """``catalog`` with the blocks the ledger holds made free.

        The remaining memory already excludes every deployed block, so a
        path is charged (1b) memory and training cost only for the blocks
        it would newly deploy.  Each distinct path tuple is rebuilt once,
        so replicas keep sharing one tuple (the solver's replica key); with
        nothing deployed the catalog is returned as it is.
        """
        deployed = self.ledger.blocks
        if not deployed:
            return catalog

        def free(block: Block) -> Block:
            if block.block_id not in deployed:
                return block
            return replace(block, memory_gb=0.0, training_cost_s=0.0)

        rebuilt: dict[int, tuple[Path, ...]] = {}
        out = Catalog()
        for task in tasks:
            paths = catalog.paths_for(task)
            if id(paths) not in rebuilt:
                rebuilt[id(paths)] = tuple(
                    replace(path, blocks=tuple(map(free, path.blocks))) for path in paths
                )
            out.paths_by_task[task.task_id] = rebuilt[id(paths)]
        return out

    def evict_task(self, task_id: int) -> list[str]:
        """Tear down a task: release slice, compute and orphaned blocks."""
        return self.ledger.release(task_id)
