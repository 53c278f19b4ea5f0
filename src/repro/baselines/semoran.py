"""Re-implementation of the SEM-O-RAN policy [5] (the paper's baseline).

From Sec. V/VI of the OffloaDNN paper, SEM-O-RAN:

* maximizes the number of admitted offloaded tasks multiplied by their
  value (here: the task priority), "till there are enough resources
  available" — a greedy value-ordered admission;
* admits or rejects *all* requests of a task (binary admission, no
  fractional ratios);
* applies *semantic compression* to task input images: it may select a
  lower quality level (fewer bits) when the accuracy requirement still
  holds, reducing radio consumption;
* allocates resources of different types in a *balanced* manner to avoid
  starvation — realized by checking every resource dimension during
  admission and then spreading the leftover RBs across admitted slices;
* does **not** leverage DNN block sharing, structure optimization,
  fine-tuning or pruning: every admitted task is served by its own
  dedicated full-accuracy DNN deployment.

The no-sharing property is enforced structurally: the chosen path's
blocks are cloned with per-task ids, so the memory and training cost of
each deployment are counted in full even if the underlying catalog
would have allowed sharing.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Callable

from repro.core.catalog import Block, Path
from repro.core.latency import full_rate_rbs, min_latency_rbs
from repro.core.problem import DOTProblem
from repro.core.solution import Assignment, DOTSolution
from repro.core.task import Task

__all__ = ["SemORANSolver"]


def _dedicated_copy(path: Path, task: Task) -> Path:
    """Clone a path with per-task block ids (no sharing, costs in full)."""
    blocks = tuple(
        replace(
            block,
            block_id=f"semoran:task{task.task_id}:{block.block_id}",
            dnn_id=f"semoran:task{task.task_id}:{block.dnn_id}",
        )
        for block in path.blocks
    )
    return replace(path, path_id=f"semoran:{path.path_id}", blocks=blocks)


@dataclass
class SemORANSolver:
    """Greedy value-ordered binary admission with dedicated DNNs."""

    name: str = "SEM-O-RAN"
    #: timestamp source for ``solve_time_s`` (injectable for testing)
    clock: Callable[[], float] = time.perf_counter

    def solve(self, problem: DOTProblem) -> DOTSolution:
        start = self.clock()
        solution = DOTSolution()
        remaining_memory = problem.budgets.memory_gb
        remaining_compute = problem.budgets.compute_time_s
        remaining_rbs = problem.budgets.radio_blocks
        admitted: list[tuple[Task, Path, int]] = []

        for task in problem.tasks_by_priority():
            choice = self._choose(problem, task)
            if choice is None:
                solution.assignments[task.task_id] = Assignment(
                    task=task, path=None, admission_ratio=0.0, radio_blocks=0
                )
                continue
            path, rbs = choice
            memory = sum(b.memory_gb for b in path.blocks)
            compute = task.request_rate * path.compute_time_s
            if (
                memory <= remaining_memory + 1e-12
                and compute <= remaining_compute + 1e-12
                and rbs <= remaining_rbs
            ):
                remaining_memory -= memory
                remaining_compute -= compute
                remaining_rbs -= rbs
                admitted.append((task, path, rbs))
            else:
                solution.assignments[task.task_id] = Assignment(
                    task=task, path=None, admission_ratio=0.0, radio_blocks=0
                )

        allocations = self._finalize_rbs(admitted, remaining_rbs)
        for (task, path, _), rbs in zip(admitted, allocations):
            solution.assignments[task.task_id] = Assignment(
                task=task, path=path, admission_ratio=1.0, radio_blocks=rbs
            )
        solution.solve_time_s = self.clock() - start
        solution.solver_name = self.name
        return solution

    def _choose(self, problem: DOTProblem, task: Task) -> tuple[Path, int] | None:
        """Dedicated full-accuracy path + semantically compressed quality.

        Picks the highest-accuracy candidate (no shaping), then the
        lowest-bits quality level that still satisfies the accuracy
        requirement, then the minimum RB count meeting rate and latency.
        """
        candidates = problem.catalog.paths_for(task)
        if not candidates:
            return None
        base = max(candidates, key=lambda p: (p.accuracy, p.compute_time_s))
        best: tuple[Path, int] | None = None
        bits_per_rb = problem.radio.bits_per_rb(task)
        for quality in sorted(task.qualities, key=lambda q: q.bits_per_image):
            if base.accuracy * quality.accuracy_factor < task.min_accuracy - 1e-12:
                continue
            path = replace(base, quality=quality)
            r_lat = min_latency_rbs(
                path.bits_per_image,
                bits_per_rb,
                task.max_latency_s,
                path.compute_time_s,
            )
            r_rate = full_rate_rbs(task.request_rate * path.bits_per_image, bits_per_rb)
            rbs = max(r_lat, r_rate)
            if rbs > problem.budgets.radio_blocks:
                continue
            best = (_dedicated_copy(path, task), rbs)
            break  # lowest-bits feasible quality wins
        return best

    def _finalize_rbs(
        self, admitted: list[tuple[Task, Path, int]], leftover: int
    ) -> list[int]:
        """Spread leftover RBs proportionally to slice load (balanced)."""
        rbs = [r for _, _, r in admitted]
        if not admitted or leftover <= 0:
            return rbs
        total = sum(rbs)
        extra = [int(leftover * r / total) for r in rbs] if total else [0] * len(rbs)
        spare = leftover - sum(extra)
        for i in range(len(rbs)):
            if spare <= 0:
                break
            extra[i] += 1
            spare -= 1
        return [r + e for r, e in zip(rbs, extra)]
