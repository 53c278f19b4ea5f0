"""The OffloaDNN controller — the Fig. 4 workflow, end to end.

Steps:

1. mobile devices submit task admission requests;
2. the controller pulls DNN availability plus computing and network
   status from the VIM and the vRAN;
3. it runs the DOT solver (OffloaDNN by default);
4. it allocates the radio slices and commits the computing resources;
5. it deploys the selected DNN blocks through the VIM;
6. it notifies the devices of the admitted task rates;
7. devices transmit task inputs and receive results (the serving
   runtime's role; see :mod:`repro.serving`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.problem import Budgets, DOTProblem, RadioModel
from repro.core.catalog import Catalog
from repro.core.heuristic import OffloaDNNSolver
from repro.core.solution import DOTSolution
from repro.core.task import Task
from repro.edge.vim import VirtualInfrastructureManager
from repro.radio.slicing import SliceManager

__all__ = ["AdmissionTicket", "OffloaDNNController"]


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


@dataclass
class OffloaDNNController:
    """Edge-side controller orchestrating admission and deployment."""

    vim: VirtualInfrastructureManager
    slice_manager: SliceManager
    radio: RadioModel = field(default_factory=RadioModel)
    solver: object = field(default_factory=OffloaDNNSolver)
    alpha: float = 0.5
    training_budget_s: float = 1000.0
    #: last DOT solution, for inspection
    last_solution: DOTSolution | None = None
    #: currently admitted tasks, for preemption decisions
    active_tasks: dict[int, Task] = field(default_factory=dict)

    def handle_admission_requests(
        self, tasks: tuple[Task, ...], catalog: Catalog
    ) -> dict[int, AdmissionTicket]:
        """Run the full workflow for a batch of admission requests."""
        # step 2: pull resource status
        status = self.vim.computing_status()
        free_compute = status["compute_free_s"]
        free_memory = status["memory_free_gb"]
        free_rbs = self.slice_manager.free_rbs
        if free_compute <= 0 or free_memory <= 0 or free_rbs <= 0:
            # some resource pool is exhausted: nothing can be admitted
            return {
                task.task_id: AdmissionTicket(
                    task_id=task.task_id,
                    admitted=False,
                    admission_ratio=0.0,
                    granted_rate=0.0,
                    radio_blocks=0,
                    path_id=None,
                )
                for task in tasks
            }
        budgets = Budgets(
            compute_time_s=free_compute,
            training_budget_s=self.training_budget_s,
            memory_gb=free_memory,
            radio_blocks=free_rbs,
        )
        problem = DOTProblem(
            tasks=tasks,
            catalog=catalog,
            budgets=budgets,
            radio=self.radio,
            alpha=self.alpha,
        )
        # step 3: solve DOT
        solution = self.solver.solve(problem)
        self.last_solution = solution
        # steps 4-5: allocate slices, commit compute, deploy blocks
        tickets: dict[int, AdmissionTicket] = {}
        for task in tasks:
            assignment = solution.assignment(task)
            if not assignment.admitted:
                tickets[task.task_id] = AdmissionTicket(
                    task_id=task.task_id,
                    admitted=False,
                    admission_ratio=0.0,
                    granted_rate=0.0,
                    radio_blocks=0,
                    path_id=None,
                )
                continue
            path = assignment.path
            assert path is not None
            # The DOT radio constraint bounds Σ z·r, but a slice occupies
            # its full r RBs physically; with partial admissions the
            # slice grid can run out first — treat that as a rejection.
            try:
                self.slice_manager.allocate(
                    task.task_id,
                    assignment.radio_blocks,
                    self.radio.bits_per_rb(task),
                )
            except ValueError:
                tickets[task.task_id] = AdmissionTicket(
                    task_id=task.task_id,
                    admitted=False,
                    admission_ratio=0.0,
                    granted_rate=0.0,
                    radio_blocks=0,
                    path_id=None,
                )
                continue
            self.vim.commit_inference_load(
                task.task_id, assignment.admitted_rate * path.compute_time_s
            )
            for block in path.blocks:
                self.vim.deploy_block(block, task.task_id)
            self.active_tasks[task.task_id] = task
            # step 6: notify the device
            tickets[task.task_id] = AdmissionTicket(
                task_id=task.task_id,
                admitted=True,
                admission_ratio=assignment.admission_ratio,
                granted_rate=assignment.admitted_rate,
                radio_blocks=assignment.radio_blocks,
                path_id=path.path_id,
            )
        return tickets

    def evict_task(self, task_id: int) -> None:
        """Tear down a task: release slice, compute and orphaned blocks."""
        self.slice_manager.release(task_id)
        self.vim.release_task(task_id)
        self.active_tasks.pop(task_id, None)

    def admit_with_preemption(
        self,
        task: Task,
        catalog: Catalog,
        min_admission_ratio: float = 1e-9,
    ) -> tuple[AdmissionTicket, list[int]]:
        """Admit ``task``, evicting strictly lower-priority tasks if needed.

        While the newcomer's admission ratio stays below
        ``min_admission_ratio`` (default: any admission at all), the
        lowest-priority active task is evicted and admission retried,
        as long as lower-priority victims remain.  Pass 1.0 to demand
        full-rate admission.  Returns the final ticket and the evicted
        task ids.  Victims are not restored on failure — by construction
        they only fall when the newcomer outranks them, the usual
        priority-preemption contract.
        """
        if not 0.0 < min_admission_ratio <= 1.0:
            raise ValueError("min_admission_ratio must be in (0, 1]")
        evicted: list[int] = []
        ticket = self.handle_admission_requests((task,), catalog)[task.task_id]
        while ticket.admission_ratio < min_admission_ratio:
            if ticket.admitted:
                # a partial grant holds resources; release before retry
                self.evict_task(task.task_id)
            victims = [
                tid
                for tid, active in self.active_tasks.items()
                if active.priority < task.priority and tid != task.task_id
            ]
            if not victims:
                if not ticket.admitted:
                    return ticket, evicted
                # re-admit at the best achievable partial ratio
                ticket = self.handle_admission_requests((task,), catalog)[task.task_id]
                return ticket, evicted
            victim = min(victims, key=lambda tid: self.active_tasks[tid].priority)
            self.evict_task(victim)
            evicted.append(victim)
            ticket = self.handle_admission_requests((task,), catalog)[task.task_id]
        return ticket, evicted
