"""Reference implementations the serving data plane is checked against.

The dispatcher used to scan every task on every tick: every serving
queue in :func:`drain_window`, every wave in ``WavePlan.push_due``.
Both scans were replaced by indexes that only touch tasks with work
(:class:`repro.serving.queueing.ReadyQueues`, the due-delivery index of
:class:`repro.serving.engine.WavePlan`).  The scans live on here, as
they were, so tests can drive the same runs through them and demand the
same windows, drops, metrics and trace bytes.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.core.catalog import Catalog
from repro.serving.queueing import ServingQueue, ServingRequest
from repro.workloads.smallscale import serving_small_scale_problem


class FullScanQueues:
    """``ReadyQueues`` by the old rule: visit every queue, every window."""

    def __init__(self, queues: dict[int, ServingQueue]) -> None:
        self._queues = queues
        self._ordered = [(tid, queues[tid]) for tid in sorted(queues)]

    def push(self, request: ServingRequest) -> ServingRequest | None:
        return self._queues[request.task_id].push(request)

    def drain(self, now: float, max_batch: int | None = None):
        window: list[ServingRequest] = []
        all_expired: list[ServingRequest] = []
        for _task_id, queue in self._ordered:
            while max_batch is None or len(window) < max_batch:
                request, expired = queue.pop_ready(now)
                all_expired.extend(expired)
                if request is None:
                    break
                request.dispatched_at = now
                window.append(request)
            if max_batch is not None and len(window) >= max_batch:
                break
        return window, all_expired


def full_scan_push_due(plan, now: float, pool, push, collect) -> None:
    """``WavePlan.push_due`` by the old rule: walk every wave, every tick.

    Scalar conversions per request, no due index, no carry set: a wave
    whose on-tick delivery loses the tie-break is simply met again by
    the next tick's walk.
    """
    for wave in plan.tasks:
        n = len(wave.deliveries)
        if wave.cursor >= n or wave.deliveries[wave.cursor] > now:
            continue
        due = int(np.searchsorted(wave.deliveries, now, side="left") - wave.cursor)
        while (
            wave.cursor + due < n
            and wave.deliveries[wave.cursor + due] == now
            and wave.arrives_before_tick(wave.cursor + due, plan.tick_times)
        ):
            due += 1
        for _ in range(due):
            i = wave.cursor
            arrival_index = int(wave.admitted_idx[i])
            request = pool.acquire(
                task_id=wave.task_id,
                request_id=int(wave.ids[arrival_index]),
                path=wave.path,
                created_at=float(wave.arrivals[arrival_index]),
                deadline_at=float(wave.deadlines[i]),
                bits=wave.bits,
            )
            request.uplink_done_at = float(wave.deliveries[i])
            wave.cursor = i + 1
            collect(wave.task_id, request)
            push(request)


def replicated_serving_problem(k: int):
    """``serving_small_scale_problem(5)`` × ``k``: tasks and budgets scale.

    Replicas share the base tasks' path tuples, so every replica is
    admitted like its original and served work grows with ``k`` — many
    tasks, each with a sparse stream of its own.
    """
    base = serving_small_scale_problem(5)
    tasks = []
    catalog = Catalog()
    for replica in range(k):
        for task in base.tasks:
            task_id = task.task_id + len(base.tasks) * replica
            tasks.append(replace(task, task_id=task_id, name=f"{task.name}-r{replica}"))
            catalog.paths_by_task[task_id] = base.catalog.paths_by_task[task.task_id]
    budgets = replace(
        base.budgets,
        compute_time_s=base.budgets.compute_time_s * k,
        training_budget_s=base.budgets.training_budget_s * k,
        memory_gb=base.budgets.memory_gb * k,
        radio_blocks=base.budgets.radio_blocks * k,
    )
    return replace(base, tasks=tuple(tasks), catalog=catalog, budgets=budgets)
